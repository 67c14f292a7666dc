package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its speed drifts by
// tens of percent over minutes, so two runs of the same code can differ
// by more than a regression bound. The calibrator measures that drift:
// between a run's timed operations it times a fixed kernel, and the
// run's timings are restated at a reference speed by the ratio of the
// kernel's reference time to its mean time in the run. The kernel is
// the benchmark's own code, so a change to the program moves the
// restated timings exactly as it moves the raw ones.
type calibrator struct {
	on bool
	// last is when the last sample ended.
	last    time.Time
	samples []float64 // seconds per kernel run
	// wall and cpu are the time spent in the kernel so far; timed
	// subtracts them from the operations they interrupt.
	wall, cpu time.Duration
	// footprintMB is the resident memory of the kernel's tables, which
	// peak_rss_mb leaves out.
	footprintMB float64

	// table and slots live outside the Go heap, in mem, so they change
	// neither the collector's pacing nor its work.
	table, slots []uint64
	mem          [][]byte
}

const (
	// calEvery is the least wall time between two samples.
	calEvery = 50 * time.Millisecond
	// calRefSeconds is the kernel's reference time, about its mean on
	// the machine of the findings in NOTES.md.
	calRefSeconds = 0.0034
	// The kernel walks a 4 MiB table, past the per-core caches, and
	// looks keys up in a 4 MiB open-addressing hash set: arithmetic,
	// cache misses and hashing, the mix of the explorer's state cache
	// and the engine's steps.
	calTableWords = 1 << 19
	calTableIters = 125_000
	calSlotBits   = 19
	calSlots      = 1 << calSlotBits
	calKeys       = calSlots / 2
	calIndexIters = 40_000
	calHashMul    = 0x9e3779b97f4a7c15
)

// calSink keeps the kernel's result live.
var calSink uint64

// newCalibrator returns a calibrator that samples when on, and
// otherwise reports a factor of 1. Its tables are mapped and filled
// here, so that sampling never allocates.
func newCalibrator(on bool) (*calibrator, error) {
	c := &calibrator{on: on}
	if !on {
		return c, nil
	}
	var err error
	if c.table, err = c.mapWords(calTableWords); err != nil {
		return nil, err
	}
	if c.slots, err = c.mapWords(calSlots); err != nil {
		return nil, errors.Join(err, c.close())
	}
	for i := range c.table {
		c.table[i] = uint64(i)
	}
	// Key 0 marks an empty slot; the keys are 1..calKeys.
	for k := uint64(1); k <= calKeys; k++ {
		i := (k * calHashMul) >> (64 - calSlotBits)
		for c.slots[i] != 0 {
			i = (i + 1) & (calSlots - 1)
		}
		c.slots[i] = k
	}
	c.footprintMB = float64(8*(calTableWords+calSlots)) / (1 << 20)
	return c, nil
}

// mapWords maps n zeroed words of anonymous memory, which close
// unmaps.
func (c *calibrator) mapWords(n int) ([]uint64, error) {
	mem, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	c.mem = append(c.mem, mem)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n), nil
}

// close unmaps the kernel's tables; the calibrator takes no samples
// after it.
func (c *calibrator) close() error {
	var errs []error
	for _, m := range c.mem {
		errs = append(errs, syscall.Munmap(m))
	}
	c.on, c.table, c.slots, c.mem = false, nil, nil, nil
	return errors.Join(errs...)
}

// kernel is one sample's fixed work.
func (c *calibrator) kernel() {
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < calTableIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calTableWords - 1)
		c.table[j] += x
		s += c.table[(j*7)&(calTableWords-1)]
	}
	for i := 0; i < calIndexIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x&(calKeys-1) + 1
		j := (k * calHashMul) >> (64 - calSlotBits)
		for c.slots[j] != k {
			j = (j + 1) & (calSlots - 1)
		}
		s += j
	}
	calSink += s
}

// tick takes a sample when the calibrator is on and calEvery has passed
// since the last one. Callers tick between timed operations only.
func (c *calibrator) tick() {
	if c.on && time.Since(c.last) >= calEvery {
		c.sample()
	}
}

func (c *calibrator) sample() {
	t0, c0 := time.Now(), cpuTime()
	c.kernel()
	d := time.Since(t0)
	c.wall += d
	c.cpu += cpuTime() - c0
	c.samples = append(c.samples, d.Seconds())
	c.last = time.Now()
}

// factor is calRefSeconds over the kernel's mean time in this run; a
// timing multiplied by it reads as at the reference speed. The mean, not
// the median, matches the timed operations, whose own times are sums
// over the same host: a stall costs both in proportion to its length.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calRefSeconds / mean(c.samples)
}
