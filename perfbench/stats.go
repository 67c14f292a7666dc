package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer is an order statistic of
// this run, not a property of the system.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// how many samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile under the minTail rule: it fails when
// fewer than minTail samples lie beyond the requested rank.
func tailPercentile(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minTail)
	}
	return v, nil
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// failFrac is failed operations over attempted ones.
func failFrac(attempted, failed int) (float64, error) {
	if attempted < 1 {
		return 0, fmt.Errorf("no operation attempted")
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("%d failed of %d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}
