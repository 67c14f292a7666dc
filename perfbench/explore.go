package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"agentring"
	"agentring/internal/experiments"
	"agentring/internal/jobs"
)

// sweepPlan is one explore case resolved into the calls a sweep makes.
type sweepPlan struct {
	c          exploreCase
	alg        agentring.Algorithm
	placements [][]int
	opts       agentring.ExploreOptions
}

// planExplore resolves a workload's cases; workers > 0 overrides the
// cases' worker counts.
func planExplore(cases []exploreCase, workers int, tr *tracer, run string, parent int) ([]sweepPlan, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("no explore cases")
	}
	plans := make([]sweepPlan, 0, len(cases))
	for _, c := range cases {
		alg, err := jobs.ParseAlgorithm(c.Algorithm)
		if err != nil {
			return nil, err
		}
		p := sweepPlan{c: c, alg: alg, placements: [][]int{c.Homes}}
		if len(c.Homes) == 0 {
			id := tr.begin(run, "experiments.AllPlacements", parent)
			p.placements = experiments.AllPlacements(c.N)
			tr.end(id)
		}
		p.opts.Workers = c.Workers
		if workers > 0 {
			p.opts.Workers = workers
		}
		if c.Adversary != "" {
			b, err := agentring.ParseAdversary(c.Adversary)
			if err != nil {
				return nil, err
			}
			p.opts.Adversary = &b
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// exploreTotals sums the explorer's counters and costs over a sweep.
// Report.Replays counts expansions in checkpoint mode, so it is kept as
// expansions; replay cost comes only from StepsReplayed.
type exploreTotals struct {
	states, expansions, truncated, cacheHits, sleepSkips int
	steps                                                int64
	exploreNS, cpuNS                                     int64
	allocs, allocBytes                                   uint64
}

func (t *exploreTotals) add(rep agentring.ExploreReport) {
	t.states += rep.States
	t.expansions += rep.Replays
	t.truncated += rep.Truncated
	t.cacheHits += rep.Pruned
	t.sleepSkips += rep.SleepSkips
	t.steps += rep.StepsReplayed
}

func (t *exploreTotals) merge(o exploreTotals) {
	t.states += o.states
	t.expansions += o.expansions
	t.truncated += o.truncated
	t.cacheHits += o.cacheHits
	t.sleepSkips += o.sleepSkips
	t.steps += o.steps
	t.exploreNS += o.exploreNS
	t.cpuNS += o.cpuNS
	t.allocs += o.allocs
	t.allocBytes += o.allocBytes
}

// sweepResult is one timed pass over every placement of every case.
type sweepResult struct {
	states []int // per plan
	totals exploreTotals
}

// sweep explores every placement of every plan once, checking each
// verdict. With memstats set it also brackets every call with CPU and
// allocation counters, which the traced run reports per state.
func sweep(ctx context.Context, e *env, plans []sweepPlan, run string, parent int, memstats bool) (sweepResult, error) {
	var out sweepResult
	for _, p := range plans {
		var planTotals exploreTotals
		for _, homes := range p.placements {
			e.cal.tick()
			var m0, m1 runtime.MemStats
			var c0 time.Duration
			if memstats {
				runtime.ReadMemStats(&m0)
				c0 = cpuTime()
			}
			id := e.tr.begin(run, "agentring.Explore", parent)
			t0 := time.Now()
			rep, err := agentring.Explore(ctx, p.alg, agentring.Config{N: p.c.N, Homes: homes}, p.opts)
			d := time.Since(t0)
			e.tr.end(id)
			if memstats {
				planTotals.cpuNS += int64(cpuTime() - c0)
				runtime.ReadMemStats(&m1)
				planTotals.allocs += m1.Mallocs - m0.Mallocs
				planTotals.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			}
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			planTotals.exploreNS += d.Nanoseconds()
			planTotals.add(rep)
			e.tally.op(checkExplore(p.c, rep, err), "%s n=%d homes=%v", p.c.Algorithm, p.c.N, homes)
		}
		e.tally.check(checkSweep(p.c, len(p.placements), planTotals.states), "%s n=%d sweep", p.c.Algorithm, p.c.N)
		out.states = append(out.states, planTotals.states)
		// Only the cases that answer "uniform" make the per-state
		// figures: the Theorem 5 instance stops at its counterexample.
		if p.c.Verdict == "uniform" {
			out.totals.merge(planTotals)
		}
	}
	return out, nil
}

// guardStates is the exact-count guard: at workers=1 every sweep of a
// run must expand exactly the states the first one did.
func guardStates(e *env, plans []sweepPlan, sweeps []sweepResult) {
	for i, p := range plans {
		if p.opts.Workers > 1 {
			continue
		}
		for _, s := range sweeps[1:] {
			if s.states[i] != sweeps[0].states[i] {
				e.tally.check(fmt.Errorf("%d states, first sweep had %d", s.states[i], sweeps[0].states[i]),
					"%s n=%d exact-count guard", p.c.Algorithm, p.c.N)
			}
		}
	}
}

// exploreLayers derives the explore.* per-layer metrics from the traced
// sweeps; ref is an untraced sweep at workers=1 for the parallel-overhead
// ratio (its CPU per state, measured without memstats brackets).
func exploreLayers(traced []sweepResult, refCPUNSPerState float64) map[string]float64 {
	var t exploreTotals
	for _, s := range traced {
		t.merge(s.totals)
	}
	last := traced[len(traced)-1].totals
	states := float64(t.states)
	lastStates := float64(last.states)
	cpuPerState := float64(t.cpuNS) / states
	return map[string]float64{
		"explore.states":                    lastStates,
		"explore.expansions":                float64(last.expansions),
		"explore.truncated":                 float64(last.truncated),
		"explore.cache_hits":                float64(last.cacheHits),
		"explore.ns_per_state":              float64(t.exploreNS) / states,
		"explore.cache_hit_ratio":           float64(last.cacheHits) / float64(last.cacheHits+last.states),
		"explore.sleep_skips_per_state":     float64(last.sleepSkips) / lastStates,
		"explore.steps_per_state":           float64(last.steps) / lastStates,
		"explore.cpu_ns_per_state":          cpuPerState,
		"explore.cpu_ns_per_state.workers1": refCPUNSPerState,
		"explore.parallel_cpu_ratio":        cpuPerState / refCPUNSPerState,
		"explore.allocs_per_state":          float64(t.allocs) / states,
		"explore.alloc_bytes_per_state":     float64(t.allocBytes) / states,
	}
}
