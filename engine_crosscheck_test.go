package agentring_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"agentring/internal/baseline"
	"agentring/internal/core"
	"agentring/internal/rendezvous"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/topo"
)

// The frame-vs-coroutine cross-check: the engine executes every
// program as its resumable frame, while sim.ProgramFunc(p.Run) runs the
// same program's blocking Run — the paper-pseudocode reference — on a
// coroutine behind the adapter frame. The two forms promise
// observational equivalence (see sim.Frame); this test holds them to it
// on the golden configuration across all schedulers, comparing the full
// rendered trace, the canonical configuration hash (with per-agent
// state tracking on), and final positions. Together with
// TestGoldenDeterminism — which pins the frames against recorded
// traces — this keeps both forms byte-identical to the pre-frame
// engine.

// crosscheckConfig is the golden configuration of TestGoldenDeterminism.
const crosscheckN = 36

var crosscheckHomes = []ring.NodeID{0, 3, 4, 11, 17, 25}

// crosscheckPrograms builds one fresh program per agent, mirroring the
// facade's per-algorithm construction; with coroutine set, each runs
// its Run through sim.ProgramFunc instead of its frame.
func crosscheckPrograms(t *testing.T, alg string, n, k int, coroutine bool) []sim.Program {
	t.Helper()
	mk := func() (sim.Program, error) {
		switch alg {
		case "native":
			return core.NewAlg1(core.KnowAgents, k)
		case "nativeKnowN":
			return core.NewAlg1(core.KnowNodes, n)
		case "logspace":
			return core.NewAlg2(k)
		case "logspaceOverK":
			// Wrong knowledge of k drives Algorithm 2 into its
			// invariant exits.
			return core.NewAlg2(k + 1)
		case "logspaceUnderK":
			return core.NewAlg2(max(k-1, 1))
		case "relaxed":
			return core.NewRelaxed(), nil
		case "relaxedAblation":
			// Too few repetitions: agents misestimate more often and
			// lean on corrections and catch-up.
			return core.NewRelaxedAblation(2, 3)
		case "naive":
			return core.NewNaiveEstimator(), nil
		case "firstfit":
			return baseline.NewFirstFit(n, k)
		case "binative":
			return core.NewBiNative(k)
		case "noToken":
			return baseline.NewNoToken(n, k)
		case "rendezvous":
			return rendezvous.New(k)
		default:
			return nil, fmt.Errorf("unknown algorithm %q", alg)
		}
	}
	programs := make([]sim.Program, k)
	for i := range programs {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		programs[i] = p
		if coroutine {
			programs[i] = sim.ProgramFunc(p.Run)
		}
	}
	return programs
}

func crosscheckScheduler(t *testing.T, kind string) sim.Scheduler {
	t.Helper()
	switch kind {
	case "roundrobin":
		return sim.NewRoundRobin()
	case "random":
		return sim.NewRandom(7)
	case "synchronous":
		return sim.NewSynchronous()
	case "adversarial":
		return sim.NewAdversarial(sim.DefaultAdversaryBound)
	default:
		t.Fatalf("unknown scheduler %q", kind)
		return nil
	}
}

// runBoth executes the same (topology, programs, scheduler, faults)
// setup twice — as frames and through sim.ProgramFunc(p.Run) — and
// asserts identical observable behaviour. It returns the run's error.
func runBoth(t *testing.T, top sim.Topology, homes []ring.NodeID, alg, sched string, faults sim.FaultSchedule) error {
	t.Helper()
	n := top.Size()
	k := len(homes)
	type outcome struct {
		trace     string
		key       uint64
		hashes    []uint64
		positions []ring.NodeID
		peaks     []int
		steps     int
		err       error
	}
	if _, ok := crosscheckPrograms(t, alg, n, k, false)[0].Frame().(sim.FrameSaver); !ok {
		t.Fatalf("%s has no checkpointable frame: the cross-check may compare the coroutine with itself", alg)
	}
	exec := func(coroutine bool) outcome {
		trace := sim.NewTrace(1 << 20)
		e, err := sim.NewEngine(top, homes, crosscheckPrograms(t, alg, n, k, coroutine), sim.Options{
			Scheduler:  crosscheckScheduler(t, sched),
			Trace:      trace,
			TrackState: true,
			Faults:     faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		snap := e.Snapshot()
		peaks := make([]int, len(res.Agents))
		for i, a := range res.Agents {
			peaks[i] = a.PeakWords
		}
		return outcome{
			peaks:     peaks,
			trace:     trace.String(),
			key:       snap.Key(),
			hashes:    snap.AgentHashes,
			positions: res.Positions(),
			steps:     res.Steps,
			err:       err,
		}
	}
	frame, coro := exec(false), exec(true)
	if (frame.err == nil) != (coro.err == nil) {
		t.Fatalf("run errors diverge: frame=%v coroutine=%v", frame.err, coro.err)
	}
	if frame.err != nil && frame.err.Error() != coro.err.Error() {
		t.Fatalf("error texts diverge:\nframe:     %v\ncoroutine: %v", frame.err, coro.err)
	}
	if frame.trace != coro.trace {
		t.Errorf("traces diverge (frame %d bytes, coroutine %d bytes)", len(frame.trace), len(coro.trace))
	}
	if frame.key != coro.key {
		t.Errorf("configuration keys diverge: frame %#x, coroutine %#x", frame.key, coro.key)
	}
	if !reflect.DeepEqual(frame.hashes, coro.hashes) {
		t.Errorf("agent state hashes diverge:\nframe:     %#x\ncoroutine: %#x", frame.hashes, coro.hashes)
	}
	if !reflect.DeepEqual(frame.positions, coro.positions) {
		t.Errorf("positions diverge: frame %v, coroutine %v", frame.positions, coro.positions)
	}
	if frame.steps != coro.steps {
		t.Errorf("steps diverge: frame %d, coroutine %d", frame.steps, coro.steps)
	}
	if !reflect.DeepEqual(frame.peaks, coro.peaks) {
		t.Errorf("memory peaks diverge: frame %v, coroutine %v", frame.peaks, coro.peaks)
	}
	return frame.err
}

func TestFrameCoroutineCrossCheck(t *testing.T) {
	algs := []string{"native", "nativeKnowN", "logspace", "relaxed", "naive", "firstfit", "noToken", "rendezvous"}
	scheds := []string{"roundrobin", "random", "synchronous", "adversarial"}
	for _, alg := range algs {
		for _, sched := range scheds {
			t.Run(alg+"/"+sched, func(t *testing.T) {
				runBoth(t, ring.MustNew(crosscheckN), crosscheckHomes, alg, sched, nil)
			})
		}
	}
}

// TestFrameCoroutineCrossCheckHomes drives the frame branches the
// golden configuration never reaches: a rotation-symmetric placement
// (Algorithm 2 decides "identical" in its first sub-phase), a lone agent
// (it wraps the ring alone), and a placement whose dense cluster makes
// relaxed agents misestimate n'=1, suspend, and adopt a correction. The
// wrong-k LogSpace variants reach its invariant exits, and the
// symmetric placement is periodic, so rendezvous exits with
// ErrSymmetric through its frame.
func TestFrameCoroutineCrossCheckHomes(t *testing.T) {
	placements := map[string][]ring.NodeID{
		"symmetric":   {0, 6, 12, 18, 24, 30},
		"lone":        {5},
		"misestimate": {0, 1, 2, 3, 4, 20},
	}
	for name, homes := range placements {
		for _, alg := range []string{"logspace", "logspaceOverK", "logspaceUnderK", "relaxed", "relaxedAblation", "rendezvous"} {
			for _, sched := range []string{"roundrobin", "random", "synchronous", "adversarial"} {
				t.Run(name+"/"+alg+"/"+sched, func(t *testing.T) {
					err := runBoth(t, ring.MustNew(crosscheckN), homes, alg, sched, nil)
					if alg == "rendezvous" && errors.Is(err, rendezvous.ErrSymmetric) != (name == "symmetric") {
						t.Errorf("rendezvous on the %s placement: err = %v", name, err)
					}
				})
			}
		}
	}
}

// TestFrameCoroutineCrossCheckBiRing covers the multi-port frame
// (binative's backward deployment) on the bidirectional ring.
func TestFrameCoroutineCrossCheckBiRing(t *testing.T) {
	bi, err := topo.NewBiRing(crosscheckN)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"roundrobin", "random", "synchronous", "adversarial"} {
		t.Run("binative/"+sched, func(t *testing.T) {
			runBoth(t, bi, crosscheckHomes, "binative", sched, nil)
		})
	}
}

// TestFrameCoroutineCrossCheckFaults replays the fault-golden shapes —
// a no-op all-up schedule and a real fail/repair pair — through both
// execution forms.
func TestFrameCoroutineCrossCheckFaults(t *testing.T) {
	schedules := map[string]sim.FaultSchedule{
		"allup": {
			{Step: 0, From: 0, Port: 0, Up: true},
			{Step: 7, From: 9, Port: 0, Up: true},
			{Step: 100, From: 20, Port: 0, Up: true},
			{Step: 1 << 20, From: 33, Port: 0, Up: true},
		},
		"failrepair": {
			{Step: 10, From: 18, Port: 0, Up: false},
			{Step: 90, From: 18, Port: 0, Up: true},
		},
	}
	for name, faults := range schedules {
		for _, alg := range []string{"native", "relaxed"} {
			t.Run(name+"/"+alg, func(t *testing.T) {
				runBoth(t, ring.MustNew(crosscheckN), crosscheckHomes, alg, "roundrobin", faults)
			})
		}
	}
}

// driveStepwise advances an engine through the step-driven control
// surface (the explorer's interface) with a fixed deterministic pick
// rule, optionally forcing a Checkpoint/Restore round-trip before every
// decision — with every third round-trip resuming into a brand-new
// engine built by fresh. It returns the engine that holds the final
// state.
func driveStepwise(t *testing.T, e *sim.Engine, fresh func() *sim.Engine, roundTrip bool) *sim.Engine {
	t.Helper()
	cp := &sim.Checkpoint{}
	for decision := 0; ; decision++ {
		if roundTrip {
			if err := e.CheckpointTo(cp); err != nil {
				t.Fatalf("decision %d: CheckpointTo: %v", decision, err)
			}
			if decision%3 == 2 {
				e = fresh()
			}
			if err := e.Restore(cp); err != nil {
				t.Fatalf("decision %d: Restore: %v", decision, err)
			}
		}
		cs := e.DecisionPoint()
		if len(cs) == 0 {
			return e
		}
		if e.Steps() >= e.StepLimit() {
			t.Fatalf("step limit hit at decision %d", decision)
		}
		if err := e.ApplyChoice(cs[(decision*7+3)%len(cs)]); err != nil {
			t.Fatalf("decision %d: ApplyChoice: %v", decision, err)
		}
	}
}

// TestCheckpointRestoreCrossCheck holds the checkpoint layer to the
// frame/coroutine equivalence on the production algorithms: for every
// program on the golden configuration (plus binative on
// the bidirectional ring), a step-driven run that round-trips through
// Checkpoint/Restore at every decision — periodically abandoning the
// engine for a fresh one resumed from the checkpoint — must finish in
// exactly the configuration the uninterrupted coroutine reference
// reaches. This is the whole-algorithm version of the lockstep check in
// internal/sim (TestFrameCoroutineCheckpointCrossCheck) and the ground
// the explorer's checkpoint mode stands on.
func TestCheckpointRestoreCrossCheck(t *testing.T) {
	cases := []struct {
		alg string
		top func() sim.Topology
	}{
		{"native", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"nativeKnowN", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"logspace", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"relaxed", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"naive", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"firstfit", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"noToken", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"rendezvous", func() sim.Topology { return ring.MustNew(crosscheckN) }},
		{"binative", func() sim.Topology {
			bi, err := topo.NewBiRing(crosscheckN)
			if err != nil {
				t.Fatal(err)
			}
			return bi
		}},
	}
	faults := sim.FaultSchedule{
		{Step: 10, From: 18, Port: 0, Up: false},
		{Step: 90, From: 18, Port: 0, Up: true},
	}
	for _, tc := range cases {
		t.Run(tc.alg, func(t *testing.T) {
			top := tc.top()
			n, k := top.Size(), len(crosscheckHomes)
			mk := func(coroutine bool) *sim.Engine {
				e, err := sim.NewEngine(top, crosscheckHomes, crosscheckPrograms(t, tc.alg, n, k, coroutine), sim.Options{
					TrackState: true,
					Faults:     faults,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			cpd := mk(false)
			if !cpd.Checkpointable() {
				t.Fatalf("%s frames do not checkpoint", tc.alg)
			}
			ref := driveStepwise(t, mk(true), nil, false)
			cpd = driveStepwise(t, cpd, func() *sim.Engine { return mk(false) }, true)

			refSnap, cpdSnap := ref.Snapshot(), cpd.Snapshot()
			if refSnap.Key() != cpdSnap.Key() {
				t.Errorf("configuration keys diverge: checkpointed %#x, coroutine %#x", cpdSnap.Key(), refSnap.Key())
			}
			if !reflect.DeepEqual(refSnap.AgentHashes, cpdSnap.AgentHashes) {
				t.Errorf("agent hashes diverge:\ncheckpointed: %#x\ncoroutine:    %#x", cpdSnap.AgentHashes, refSnap.AgentHashes)
			}
			refRes, cpdRes := ref.ResultNow(), cpd.ResultNow()
			if !reflect.DeepEqual(refRes.Positions(), cpdRes.Positions()) {
				t.Errorf("positions diverge: checkpointed %v, coroutine %v", cpdRes.Positions(), refRes.Positions())
			}
			if refRes.Steps != cpdRes.Steps || refRes.TotalMoves != cpdRes.TotalMoves {
				t.Errorf("steps/moves diverge: checkpointed %d/%d, coroutine %d/%d",
					cpdRes.Steps, cpdRes.TotalMoves, refRes.Steps, refRes.TotalMoves)
			}
		})
	}
}
