package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"agentring/internal/core"
	"agentring/internal/ring"
	"agentring/internal/sim"
)

// probeReps is how many times the step probe repeats each idempotent
// call at one state, so one clock read pair covers several calls.
const probeReps = 8

// The probes do a fixed amount of work, so their spans grow with the
// cost of the calls they make: probeStates states for the step probe
// and probeSchedules recorded schedules, each replayed from the root at
// replayPrefixes random cuts, for the replay probe. Each takes about a
// second at the time of writing (see NOTES.md).
const (
	probeStates    = 50_000
	probeSchedules = 2000
	replayPrefixes = 8
)

// fullPlacement is the largest placement of an n-ring: an agent on
// every node.
func fullPlacement(n int) []ring.NodeID {
	homes := make([]ring.NodeID, n)
	for i := range homes {
		homes[i] = ring.NodeID(i)
	}
	return homes
}

// newProbeEngine builds an engine over the full n-ring the way the
// explorer does, with tracked state, and returns how long
// sim.NewEngine took. The program constructors (mk) run inside one
// span named name, child of parent.
func newProbeEngine(e *env, run, name string, parent, n int, mk func() (sim.Program, error), opts sim.Options) (*sim.Engine, time.Duration, error) {
	r, err := ring.New(n)
	if err != nil {
		return nil, 0, err
	}
	programs := make([]sim.Program, n)
	id := e.tr.begin(run, name, parent)
	for i := range programs {
		if programs[i], err = mk(); err != nil {
			break
		}
	}
	e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	opts.TrackState = true
	t := time.Now()
	eng, err := sim.NewEngine(r, fullPlacement(n), programs, opts)
	return eng, time.Since(t), err
}

// probeSink keeps the probed state keys observable.
var probeSink uint64

// probeCheckpoint walks probeStates states of seeded random schedules
// of Native on the full n-ring through sim.Engine's step surface and
// times each call the explorer makes per state: DecisionPoint,
// StateKey, CheckpointTo, Restore and ApplyChoice. Idempotent calls are
// repeated probeReps times at each state; ApplyChoice is the difference
// between restore+decide+apply and restore+decide blocks at the same
// state.
func probeCheckpoint(e *env, n int, adv *sim.AdversaryBudget, run string, parent int) (map[string]float64, error) {
	eng, _, err := newProbeEngine(e, run, "core.NewAlg1", parent, n, func() (sim.Program, error) {
		return core.NewAlg1(core.KnowAgents, n)
	}, sim.Options{Adversary: adv})
	if err != nil {
		return nil, err
	}
	root, cp := new(sim.Checkpoint), new(sim.Checkpoint)
	if err := eng.CheckpointTo(root); err != nil {
		return nil, err
	}
	id := e.tr.begin(run, "sim.stepProbe", parent)
	defer e.tr.end(id)
	rng := rand.New(rand.NewSource(e.seed))
	var dp, sk, ck, rs, ap time.Duration
	var key uint64
	states, ends := 0, 0
	for states < probeStates {
		cs := eng.DecisionPoint()
		if len(cs) == 0 || eng.Steps() >= eng.StepLimit() {
			if ends++; ends > probeStates {
				return nil, fmt.Errorf("step probe: no schedule leaves the root")
			}
			if err := eng.Restore(root); err != nil {
				return nil, err
			}
			continue
		}
		pick := rng.Intn(len(cs))
		t := time.Now()
		for i := 0; i < probeReps; i++ {
			eng.DecisionPoint()
		}
		dp += time.Since(t)
		t = time.Now()
		for i := 0; i < probeReps; i++ {
			key ^= eng.StateKey()
		}
		sk += time.Since(t)
		t = time.Now()
		for i := 0; i < probeReps; i++ {
			err = eng.CheckpointTo(cp)
		}
		ck += time.Since(t)
		t = time.Now()
		for i := 0; i < probeReps; i++ {
			err = errors.Join(err, eng.Restore(cp))
		}
		rs += time.Since(t)
		t = time.Now()
		for i := 0; i < probeReps; i++ {
			err = errors.Join(err, eng.Restore(cp))
			err = errors.Join(err, eng.ApplyChoice(eng.DecisionPoint()[pick]))
		}
		withApply := time.Since(t)
		t = time.Now()
		for i := 0; i < probeReps; i++ {
			err = errors.Join(err, eng.Restore(cp))
			eng.DecisionPoint()
		}
		ap += withApply - time.Since(t)
		err = errors.Join(err, eng.ApplyChoice(eng.DecisionPoint()[pick]))
		if err != nil {
			return nil, fmt.Errorf("step probe: %w", err)
		}
		states++
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(states*probeReps) }
	probeSink = key
	return map[string]float64{
		"sim.decision_point_ns": per(dp),
		"sim.state_key_ns":      per(sk),
		"sim.checkpoint_ns":     per(ck),
		"sim.restore_ns":        per(rs),
		"sim.apply_choice_ns":   per(ap),
	}, nil
}

// recorder is a uniformly random scheduler that remembers its picks.
type recorder struct {
	rng   *rand.Rand
	picks []int
}

func (r *recorder) Pick(_ int, choices []sim.Choice) int {
	p := r.rng.Intn(len(choices))
	r.picks = append(r.picks, p)
	return p
}

// probeReplay times the replay-from-root path LogSpace takes in the
// explorer: a fresh engine per schedule prefix (sim.NewEngine) and a
// Controlled run of the prefix. Prefixes are random cuts of
// probeSchedules seeded random complete schedules on the full n-ring.
func probeReplay(e *env, n int, run string, parent int) (map[string]float64, error) {
	mk := func() (sim.Program, error) { return core.NewAlg2(n) }
	rng := rand.New(rand.NewSource(e.seed))
	id := e.tr.begin(run, "sim.replayProbe", parent)
	defer e.tr.end(id)
	var newEng, replay time.Duration
	var engines, steps int64
	for s := 0; s < probeSchedules; s++ {
		rec := &recorder{rng: rng}
		eng, _, err := newProbeEngine(e, run, "core.NewAlg2", id, n, mk, sim.Options{Scheduler: rec})
		if err != nil {
			return nil, err
		}
		if _, err := eng.Run(); err != nil {
			return nil, fmt.Errorf("replay probe: %w", err)
		}
		for i := 0; i < replayPrefixes; i++ {
			prefix := rec.picks[:rng.Intn(len(rec.picks)+1)]
			eng, d, err := newProbeEngine(e, run, "core.NewAlg2", id, n, mk, sim.Options{Scheduler: sim.NewControlled(prefix)})
			if err != nil {
				return nil, err
			}
			newEng += d
			t := time.Now()
			res, err := eng.Run()
			replay += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("replay probe: %w", err)
			}
			engines++
			steps += int64(res.Steps)
		}
	}
	return map[string]float64{
		"sim.new_engine_us":      float64(newEng.Nanoseconds()) / float64(engines) / 1e3,
		"sim.replay_ns_per_step": float64(replay.Nanoseconds()) / float64(steps),
	}, nil
}
