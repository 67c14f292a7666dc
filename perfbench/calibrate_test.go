package main

import (
	"math"
	"testing"
	"time"
)

func TestCalibratorFactor(t *testing.T) {
	c, err := newCalibrator(true)
	if err != nil {
		t.Fatal(err)
	}
	if f := c.factor(); f != 1 {
		t.Errorf("factor with no samples = %g, want 1", f)
	}
	c.samples = []float64{calRefSeconds, 3 * calRefSeconds}
	if f := c.factor(); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("factor with a mean of twice the reference = %g, want 0.5", f)
	}
	if c.footprintMB != 8 {
		t.Errorf("footprint %g MB, want the two 4 MiB tables", c.footprintMB)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	c.tick()
	if len(c.samples) != 2 {
		t.Errorf("closed calibrator took a sample")
	}
}

func TestCalibratorOffTakesNoSamples(t *testing.T) {
	c, err := newCalibrator(false)
	if err != nil {
		t.Fatal(err)
	}
	c.tick()
	if len(c.samples) != 0 || c.footprintMB != 0 || c.factor() != 1 {
		t.Errorf("off calibrator: %d samples, footprint %g, factor %g", len(c.samples), c.footprintMB, c.factor())
	}
}

// TestTimedLeavesOutCalibration: a sample taken inside a timed unit is
// not part of the unit's wall or CPU time.
func TestTimedLeavesOutCalibration(t *testing.T) {
	e := testEnv(t, "explore-native", 1, 0, false, t.TempDir())
	const work = 20 * time.Millisecond
	t0 := time.Now()
	r, err := e.timed(func() error {
		e.cal.sample()
		time.Sleep(work)
		e.cal.tick() // too soon after the sample: no second one
		return nil
	})
	outer := time.Since(t0)
	if err != nil || len(e.cal.samples) != 1 {
		t.Fatalf("err %v, %d samples", err, len(e.cal.samples))
	}
	if r.wall < work || r.wall > outer-e.cal.wall {
		t.Errorf("unit wall %v: want at least %v and at most %v (outer %v less the sample's %v)", r.wall, work, outer-e.cal.wall, outer, e.cal.wall)
	}
}

// TestSetE2ERestatesTimingsAtReferenceSpeed: every timing is multiplied
// by the run's factor; memory is not.
func TestSetE2ERestatesTimingsAtReferenceSpeed(t *testing.T) {
	e := testEnv(t, "daemon-table1", 1, 0, false, t.TempDir())
	e.cal.samples = []float64{2 * calRefSeconds}
	reps := []rep{{wall: 4 * time.Second, cpu: 6 * time.Second, rssMB: 10}}
	if err := e.setE2E([]float64{2}, reps, seq(200), false); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1, "wall_s": 2, "cpu_s": 3, "peak_rss_mb": 10, "job_p50_ms": 50.25, "job_p90_ms": 90}
	for name, v := range want {
		if e.e2e[name] != v {
			t.Errorf("%s = %g, want %g", name, e.e2e[name], v)
		}
	}
}
