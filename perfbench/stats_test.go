package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
	}{
		{10, 0.5, 5, 5},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9},
		{1, 0.9, 1, 0},
		{102, 0.5, 51, 51},
	} {
		v, beyond := percentile(seq(tc.n), tc.q)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%g of 1..%d = %g with %d beyond, want %g with %d", tc.q*100, tc.n, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %g, want NaN", v)
	}
}

// TestTailPercentileNeedsTenBeyond pins the reporting rule: a p90 needs
// at least ten samples beyond it, so 100 samples are the least that
// carry one.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if v, err := tailPercentile(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90", v, err)
	}
	if _, err := tailPercentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples passed the ten-beyond rule")
	}
	if _, err := tailPercentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
}

func TestMean(t *testing.T) {
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %g", m)
	}
	if m := mean(nil); !math.IsNaN(m) {
		t.Errorf("mean of nothing = %g, want NaN", m)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestFailFrac(t *testing.T) {
	if f, err := failFrac(10, 0); err != nil || f != 0 {
		t.Errorf("failFrac(10, 0) = %g, %v", f, err)
	}
	if f, err := failFrac(8, 2); err != nil || f != 0.25 {
		t.Errorf("failFrac(8, 2) = %g, %v", f, err)
	}
	for _, c := range [][2]int{{0, 0}, {3, 4}, {3, -1}} {
		if _, err := failFrac(c[0], c[1]); err == nil {
			t.Errorf("failFrac(%d, %d) accepted", c[0], c[1])
		}
	}
}

// TestTallyCountsSweepChecks: a failed check that is not an operation of
// its own still counts as a failure, but never beyond the attempts.
func TestTallyCountsSweepChecks(t *testing.T) {
	var tl tally
	tl.op(nil, "a")
	tl.op(errTest, "b")
	tl.check(errTest, "sweep")
	tl.check(errTest, "sweep again")
	if tl.attempted != 2 || tl.failed != 2 || len(tl.errs) != 3 {
		t.Errorf("tally = %+v, want 2 attempted, 2 failed, 3 messages", tl)
	}
}

var errTest = errorString("injected")

type errorString string

func (e errorString) Error() string { return string(e) }
