package memmeter

// Meter tracks the current and peak number of memory words held by one
// agent. The zero value is ready to use.
type Meter struct {
	current int
	peak    int
}

// Grow adds words live words.
func (m *Meter) Grow(words int) {
	m.current += words
	if m.current > m.peak {
		m.peak = m.current
	}
}

// Shrink releases words live words. Shrinking below zero clamps to zero,
// and a negative count releases nothing; both indicate a bookkeeping bug
// in the caller but must not corrupt the peak statistic.
func (m *Meter) Shrink(words int) {
	if words < 0 {
		return
	}
	m.current -= words
	if m.current < 0 {
		m.current = 0
	}
}

// Set forces the current live-word count, keeping the peak.
func (m *Meter) Set(words int) {
	if words < 0 {
		words = 0
	}
	m.current = words
	if m.current > m.peak {
		m.peak = m.current
	}
}

// Current returns the number of live words right now.
func (m *Meter) Current() int { return m.current }

// Peak returns the maximum number of simultaneously live words observed.
func (m *Meter) Peak() int { return m.peak }

// PeakBits converts the peak word count to bits for an n-node ring,
// charging ceil(log2 n) bits per word (each word stores a value < n, a
// node count, or a distance).
func (m *Meter) PeakBits(n int) int {
	return m.peak * BitsPerWord(n)
}

// BitsPerWord returns ceil(log2 n) for n >= 2 and 1 for smaller n.
func BitsPerWord(n int) int {
	if n < 2 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
