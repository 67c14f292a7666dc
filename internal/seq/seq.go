package seq

// Rotate returns shift(d, x) = (d_x, d_{x+1}, ..., d_{x-1}), the paper's
// shift operation, as a fresh slice. x may be any integer; it is reduced
// modulo len(d). Rotating an empty sequence returns an empty sequence.
func Rotate(d []int, x int) []int {
	k := len(d)
	out := make([]int, k)
	if k == 0 {
		return out
	}
	x = ((x % k) + k) % k
	copy(out, d[x:])
	copy(out[k-x:], d[:x])
	return out
}

// Compare lexicographically compares two integer sequences, returning
// -1, 0, or +1. Shorter sequences that are prefixes of longer ones
// compare as smaller, matching standard lexicographic order.
func Compare(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether two sequences are identical.
func Equal(a, b []int) bool { return Compare(a, b) == 0 }

// MinRotation returns the smallest index x such that Rotate(d, x) is the
// lexicographically minimal rotation of d. This is the paper's
// rank = min{x >= 0 | shift(D, x) = Dmin}. It runs Booth's algorithm in
// O(len(d)) time and O(len(d)) space. For an empty sequence it returns 0.
func MinRotation(d []int) int {
	k := len(d)
	if k <= 1 {
		return 0
	}
	// Booth's least-rotation algorithm over the doubled sequence.
	fail := make([]int, 2*k)
	for i := range fail {
		fail[i] = -1
	}
	least := 0
	at := func(i int) int { return d[i%k] }
	for j := 1; j < 2*k; j++ {
		v := at(j)
		i := fail[j-least-1]
		for i != -1 && v != at(least+i+1) {
			if v < at(least+i+1) {
				least = j - i - 1
			}
			i = fail[i]
		}
		if v != at(least+i+1) {
			if v < at(least) { // i == -1 here
				least = j
			}
			fail[j-least] = -1
		} else {
			fail[j-least] = i + 1
		}
	}
	return least % k
}

// MinRotationBrute returns the same index as MinRotation by trying all
// rotations; it exists as the oracle for property tests.
func MinRotationBrute(d []int) int {
	best := 0
	bestRot := Rotate(d, 0)
	for x := 1; x < len(d); x++ {
		r := Rotate(d, x)
		if Compare(r, bestRot) < 0 {
			best = x
			bestRot = r
		}
	}
	return best
}

// Period returns the smallest p > 0 such that d is invariant under
// rotation by p, i.e. Rotate(d, p) == d. The result always divides
// len(d); it equals len(d) exactly when d is aperiodic in the paper's
// sense. Period of an empty sequence is 0.
func Period(d []int) int {
	k := len(d)
	if k == 0 {
		return 0
	}
	// KMP failure function; candidate = k - fail[k]. The candidate is the
	// minimal period of d as a linear string; it is a cyclic rotation
	// period iff it divides k.
	fail := make([]int, k+1)
	fail[0] = -1
	i := -1
	for j := 0; j < k; j++ {
		for i >= 0 && d[j] != d[i] {
			i = fail[i]
		}
		i++
		fail[j+1] = i
	}
	p := k - fail[k]
	if k%p == 0 {
		return p
	}
	return k
}

// IsPeriodic reports whether d = Rotate(d, x) for some 0 < x < len(d),
// the paper's definition of a periodic ring configuration.
func IsPeriodic(d []int) bool {
	return len(d) > 0 && Period(d) < len(d)
}

// SymmetryDegree returns l = k / x where x is the minimal positive
// rotation fixing d (the paper's symmetry degree of an initial
// configuration with distance sequence d). An aperiodic sequence has
// symmetry degree 1; an already-uniform configuration has degree k.
// The degree of an empty sequence is defined as 0.
func SymmetryDegree(d []int) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) / Period(d)
}

// Fundamental returns the aperiodic sequence S such that d = S^l with
// l = SymmetryDegree(d), i.e. the gap pattern of the paper's
// "fundamental ring".
func Fundamental(d []int) []int {
	p := Period(d)
	out := make([]int, p)
	copy(out, d[:p])
	return out
}

// Repeat returns the concatenation of c copies of d (the paper's Y^c).
func Repeat(d []int, c int) []int {
	if c <= 0 {
		return []int{}
	}
	out := make([]int, 0, c*len(d))
	for i := 0; i < c; i++ {
		out = append(out, d...)
	}
	return out
}

// Sum returns the total of all elements (the ring size for a full
// distance sequence).
func Sum(d []int) int {
	total := 0
	for _, v := range d {
		total += v
	}
	return total
}

// FourfoldPrefix reports whether d (of length j) consists of exactly
// four repetitions of its first j/4 elements. This is the stopping rule
// of the estimating phase (Algorithm 4, line 7): an agent that has
// recorded j token-to-token distances stops estimating once j mod 4 == 0
// and d = (d[0..j/4-1])^4.
func FourfoldPrefix(d []int) bool {
	j := len(d)
	if j == 0 || j%4 != 0 {
		return false
	}
	q := j / 4
	for x := 0; x < q; x++ {
		if d[x] != d[x+q] || d[x] != d[x+2*q] || d[x] != d[x+3*q] {
			return false
		}
	}
	return true
}

// RepetitionPrefix generalizes FourfoldPrefix to r repetitions; it is
// used by the estimation-rule ablation (what breaks with 2 or 3
// repetitions instead of the paper's 4).
func RepetitionPrefix(d []int, r int) bool {
	j := len(d)
	if r <= 0 || j == 0 || j%r != 0 {
		return false
	}
	q := j / r
	for x := 0; x < q; x++ {
		for c := 1; c < r; c++ {
			if d[x] != d[x+c*q] {
				return false
			}
		}
	}
	return true
}

// AlignSubsequenceMod is AlignSubsequence with the prefix-sum condition
// relaxed to a congruence: it returns the smallest t such that d matches
// sender[t:t+len(d)] and sum(sender[:t]) ≡ wantPrefixSum (mod m).
//
// This is the acceptance test our relaxed algorithm actually uses
// (m = the sender's estimated ring size n'_l). The paper states the
// condition as an equality, but a sender deep into its patrolling phase
// has a move counter nodes_l far larger than any prefix sum of its
// 4k'-entry sequence, so the literal equality is satisfiable only in a
// narrow window of the patrol and Lemma 5's "the patroller corrects
// every misestimator" argument breaks; the positional relationship the
// condition encodes is inherently modular (both agents' positions are
// congruent to home + moves mod the ring size). The core package's
// TestRelaxedNearlyFullRingRegression pins a ring where the literal
// equality leaves agents misestimating forever.
func AlignSubsequenceMod(d, sender []int, wantPrefixSum, m int) (int, bool) {
	if len(d) > len(sender) || m <= 0 {
		return 0, false
	}
	want := ((wantPrefixSum % m) + m) % m
	prefix := 0
	for t := 0; t+len(d) <= len(sender); t++ {
		if prefix%m == want {
			match := true
			for j := range d {
				if d[j] != sender[t+j] {
					match = false
					break
				}
			}
			if match {
				return t, true
			}
		}
		prefix += sender[t]
	}
	return 0, false
}

// AlignSubsequence searches for the paper's resumption condition
// (Algorithm 6, line 14): an offset t such that every element of the
// receiver's sequence d matches sender[t+j] for 0 <= j < len(d), and the
// prefix sum sender[0]+...+sender[t-1] equals wantPrefixSum (the
// difference nodes_l - nodes between the sender's and receiver's total
// move counts). It returns the smallest such t and true, or 0 and false.
func AlignSubsequence(d, sender []int, wantPrefixSum int) (int, bool) {
	if len(d) > len(sender) {
		return 0, false
	}
	prefix := 0
	for t := 0; t+len(d) <= len(sender); t++ {
		if prefix == wantPrefixSum {
			match := true
			for j := range d {
				if d[j] != sender[t+j] {
					match = false
					break
				}
			}
			if match {
				return t, true
			}
		}
		prefix += sender[t]
	}
	return 0, false
}
