package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"agentring/internal/sim"
)

// repeatUnits repeats a workload's timed unit (a sweep or a pass) for
// the budget. In a traced run every repetition runs the unit twice,
// traced and then untraced, so both see the same warm-up and the
// difference is the tracing overhead. A non-nil between runs after
// every repetition, outside the timed units.
func (e *env) repeatUnits(budget time.Duration, paired bool, unit func(traced bool) error, between func() error) (tracedReps, plainReps []rep, err error) {
	defer func() { e.tr.on = e.traced }()
	err = repeat(budget, func() error {
		if paired {
			e.tr.on = true
			r, err := e.timed(func() error { return unit(true) })
			tracedReps = append(tracedReps, r)
			if err != nil {
				return err
			}
		}
		e.tr.on = false
		r, err := e.timed(func() error { return unit(false) })
		plainReps = append(plainReps, r)
		if err != nil || between == nil {
			return err
		}
		return between()
	})
	return tracedReps, plainReps, err
}

// runName is the span run id of a unit.
func runName(traced bool, name string) string {
	if traced {
		return name
	}
	return ""
}

// setupExplore plans the sweep, the program's work before the first
// exploration starts: resolving each case's algorithm and adversary and
// enumerating its placements (experiments.AllPlacements).
func setupExplore(e *env) ([]sweepPlan, error) {
	id := e.tr.begin("setup", "bench.setup", 0)
	defer e.tr.end(id)
	return planExplore(e.exp.cases(e.workload), 0, e.tr, "setup", id)
}

// setupSamples is how many set-up samples a run takes before its first
// timed unit and again after every unit; setup_s is their median.
// Spreading the samples over the run exposes them to the same drift in
// host speed as the timed units, and each starts from a collected heap.
const setupSamples = 3

// setupBatch is the least time one explore-* set-up sample covers. One
// set-up takes microseconds, so a sample is the mean over as many
// set-ups as fill it.
const setupBatch = 50 * time.Millisecond

// exploreWorkload is every explore-* workload: timed sweeps over every
// placement of the workload's cases.
func exploreWorkload(ctx context.Context, e *env) error {
	var plans []sweepPlan
	var setups []float64
	setupAt := func() error {
		for i := 0; i < setupSamples; i++ {
			e.cal.tick()
			runtime.GC()
			t0 := time.Now()
			n := 0
			for ; n == 0 || time.Since(t0) < setupBatch; n++ {
				var err error
				if plans, err = setupExplore(e); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/float64(n))
		}
		return nil
	}
	if err := setupAt(); err != nil {
		return err
	}
	traced, tracedReps, plain, plainReps, err := e.sweeps(ctx, plans, e.budget, e.traced, "main", setupAt)
	if err != nil {
		return err
	}
	// An explore-* job is one exhaustive check, the sweep a user of
	// cmd/explore -all waits for.
	var lat []float64
	for _, r := range plainReps {
		lat = append(lat, ms(r.wall))
	}
	for i, p := range plans {
		e.notes = append(e.notes, fmt.Sprintf("%s n=%d workers=%d: %d placements, %d states per sweep, %d sweeps, expected verdict %s",
			p.c.Algorithm, p.c.N, p.opts.Workers, len(p.placements), plain[0].states[i], len(plain), p.c.Verdict))
	}
	if err := e.setE2E(setups, plainReps, lat, true); err != nil {
		return err
	}
	if !e.traced {
		return nil
	}
	if err := e.exploreTraceLayers(ctx, plans, traced, plain, plainReps); err != nil {
		return err
	}
	e.layers["trace.overhead_frac"] = medianWall(tracedReps)/medianWall(plainReps) - 1
	return e.probes(ctx, true)
}

// sweeps repeats whole sweeps for the budget, paired with traced ones
// when asked, and applies the exact-count guard to all of them.
func (e *env) sweeps(ctx context.Context, plans []sweepPlan, budget time.Duration, paired bool, run string, between func() error) (traced []sweepResult, tracedReps []rep, plain []sweepResult, plainReps []rep, err error) {
	tracedReps, plainReps, err = e.repeatUnits(budget, paired, func(tr bool) error {
		name := runName(tr, run)
		id := e.tr.begin(name, "bench.sweep", 0)
		defer e.tr.end(id)
		s, err := sweep(ctx, e, plans, name, id, tr)
		if tr {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		return err
	}, between)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	guardStates(e, plans, append(append([]sweepResult(nil), plain...), traced...))
	return traced, tracedReps, plain, plainReps, nil
}

// exploreTraceLayers derives the explore.* metrics of a traced run. The
// parallel-overhead ratio compares CPU per state with an untraced sweep
// at workers=1; a workload that already runs at workers=1 is its own
// reference.
func (e *env) exploreTraceLayers(ctx context.Context, plans []sweepPlan, traced, plain []sweepResult, plainReps []rep) error {
	w1, w1Reps := plain, plainReps
	for _, p := range plans {
		if p.opts.Workers <= 1 {
			continue
		}
		cases := make([]exploreCase, len(plans))
		for i, p := range plans {
			cases[i] = p.c
		}
		seq, err := planExplore(cases, 1, e.tr, "", 0)
		if err != nil {
			return err
		}
		if _, _, w1, w1Reps, err = e.sweeps(ctx, seq, 0, false, "", nil); err != nil {
			return err
		}
		break
	}
	var cpu, states float64
	for i, s := range w1 {
		cpu += float64(w1Reps[i].cpu.Nanoseconds())
		states += float64(s.totals.states)
	}
	e.addLayers(exploreLayers(traced, cpu/states))
	return nil
}

func medianWall(reps []rep) float64 {
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.wall.Seconds()
	}
	return median(walls)
}

// setupDaemon builds the job list from the seed and brings the daemon
// up, listening and dialled.
func setupDaemon(e *env, dir string) ([]table1Job, *daemon, error) {
	id := e.tr.begin("setup", "bench.setup", 0)
	defer e.tr.end(id)
	jid := e.tr.begin("setup", "experiments.Table1Specs", id)
	list, err := table1Jobs(e.seed)
	e.tr.end(jid)
	if err != nil {
		return nil, nil, err
	}
	did := e.tr.begin("setup", "rpc.startDaemon", id)
	d, err := startDaemon(dir)
	e.tr.end(did)
	return list, d, err
}

// daemonWorkload is daemon-table1: closed-loop passes over the Table-1
// job list through the daemon, then the in-process cross-check.
func daemonWorkload(ctx context.Context, e *env) (err error) {
	var list []table1Job
	var d *daemon
	defer func() {
		if d == nil {
			return
		}
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	// Every set-up brings up a daemon, and the next pass runs on the
	// newest one: the engine keeps every job it has run, so a pass on a
	// used daemon would start with more memory. The daemon it replaces
	// is stopped outside the samples.
	var setups []float64
	setupAt := func() error {
		for i := 0; i < setupSamples; i++ {
			e.cal.tick()
			runtime.GC()
			t0 := time.Now()
			l, sd, err := setupDaemon(e, filepath.Join(e.workDir, fmt.Sprintf("daemon%d", len(setups))))
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			old := d
			list, d = l, sd
			if old != nil {
				if err := old.stop(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := setupAt(); err != nil {
		return err
	}
	var traced, plain []passResult
	tracedReps, plainReps, err := e.repeatUnits(e.budget, e.traced, func(tr bool) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		name := runName(tr, "main")
		id := e.tr.begin(name, "bench.pass", 0)
		p := d.pass(e, list, name, id)
		e.tr.end(id)
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		return nil
	}, setupAt)
	if err != nil {
		return err
	}
	guardRows(e, append(append([]passResult(nil), plain...), traced...))
	var lat []float64
	for _, p := range plain {
		for _, t := range p.timings {
			if !t.end.IsZero() {
				lat = append(lat, ms(t.end.Sub(t.submit)))
			}
		}
	}
	e.notes = append(e.notes, fmt.Sprintf("%d jobs per pass, %d passes", len(list), len(plain)))
	if err := e.setE2E(setups, plainReps, lat, false); err != nil {
		return err
	}
	id := e.tr.begin("crosscheck", "bench.crosscheck", 0)
	local, err := runLocal(e, list, plain[0].rows, "crosscheck", id)
	e.tr.end(id)
	if err != nil {
		return err
	}
	if !e.traced {
		return nil
	}
	e.layers["trace.overhead_frac"] = medianWall(tracedReps)/medianWall(plainReps) - 1
	if err := e.serviceLayers(d, traced, local); err != nil {
		return err
	}
	return e.probes(ctx, false)
}

// serviceLayers records the jobs, rpc and run-path per-layer metrics of
// a traced run from its daemon passes, its in-process pass and a
// daemon.status round-trip probe.
func (e *env) serviceLayers(d *daemon, passes []passResult, local localRun) error {
	e.addLayers(jobLayers(passes))
	e.addLayers(local.simLayers())
	id := e.tr.begin("probe.rpc", "bench.probe", 0)
	defer e.tr.end(id)
	rt, err := d.roundtrips(e, 200, "probe.rpc", id)
	e.layers["rpc.roundtrip_us"] = rt
	return err
}

// probes measures, in a traced run, the layers the workload's own phase
// does not reach, because a traced result must carry every per-layer
// metric: the sim step and replay probes always, the daemon and
// in-process run path on explore-* workloads, and a small exploration
// on daemon-table1.
func (e *env) probes(ctx context.Context, ranExplorer bool) error {
	native := e.exp.cases("explore-native")
	logspace := e.exp.cases("explore-logspace")
	if len(native) == 0 || len(logspace) == 0 {
		return fmt.Errorf("expected answers lack the explore-native or explore-logspace case")
	}
	// The step probe takes the workload's own checkpointable case, else
	// explore-native's.
	stepCase := native[0]
	for _, c := range e.exp.cases(e.workload) {
		if c.Algorithm == "native" && c.Verdict == "uniform" {
			stepCase = c
			break
		}
	}
	plans, err := planExplore([]exploreCase{stepCase}, 0, e.tr, "", 0)
	if err != nil {
		return err
	}
	var adv *sim.AdversaryBudget
	if b := plans[0].opts.Adversary; b != nil {
		adv = &sim.AdversaryBudget{MaxConcurrent: b.MaxConcurrent, RepairWithin: b.RepairWithin, MaxTotal: b.MaxTotal}
	}
	m, err := probeCheckpoint(e, stepCase.N, adv, "probe.sim", 0)
	if err != nil {
		return err
	}
	e.addLayers(m)
	if m, err = probeReplay(e, logspace[0].N, "probe.replay", 0); err != nil {
		return err
	}
	e.addLayers(m)
	if ranExplorer {
		return e.daemonProbe()
	}
	if plans, err = planExplore(e.exp.cases("probe-explore"), 0, e.tr, "probe.explore", 0); err != nil {
		return err
	}
	traced, _, plain, plainReps, err := e.sweeps(ctx, plans, 0, true, "probe.explore", nil)
	if err != nil {
		return err
	}
	return e.exploreTraceLayers(ctx, plans, traced, plain, plainReps)
}

// daemonProbe runs one traced pass of the seed's Table-1 job list
// through a fresh daemon and in process, for the jobs, rpc and run-path
// metrics of an explore-* traced run.
func (e *env) daemonProbe() (err error) {
	list, d, err := setupDaemon(e, filepath.Join(e.workDir, "probe-daemon"))
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	id := e.tr.begin("probe.daemon", "bench.pass", 0)
	p := d.pass(e, list, "probe.daemon", id)
	e.tr.end(id)
	id = e.tr.begin("probe.run", "bench.probe", 0)
	local, err := runLocal(e, list, p.rows, "probe.run", id)
	e.tr.end(id)
	if err != nil {
		return err
	}
	return e.serviceLayers(d, []passResult{p}, local)
}
