package explore

import (
	"context"
	"hash/fnv"
	"slices"
	"sync/atomic"
	"testing"

	"agentring/internal/rendezvous"
	"agentring/internal/ring"
	"agentring/internal/sim"
	"agentring/internal/workload"
)

// crosscheckTimelines are the fault shapes the restore ≡ from-root
// equivalence is sworn on: no faults, an eventually-repaired link, a
// permanent cut (which defeats the algorithms — the grid's guaranteed
// counterexamples), and link churn across several boundaries.
func crosscheckTimelines() map[string]sim.FaultSchedule {
	return map[string]sim.FaultSchedule{
		"static": nil,
		"transient": {
			{Step: 1, From: 2, Port: 0, Up: false},
			{Step: 12, From: 2, Port: 0, Up: true},
		},
		"permanent": {
			{Step: 1, From: 2, Port: 0, Up: false},
		},
		"churn": {
			{Step: 2, From: 1, Port: 0, Up: false},
			{Step: 5, From: 1, Port: 0, Up: true},
			{Step: 9, From: 3, Port: 0, Up: false},
			{Step: 14, From: 3, Port: 0, Up: true},
		},
	}
}

// cexString renders a counterexample (or its absence) to the exact
// bytes a report would show; equality of these strings is the
// "byte-identical counterexamples" contract.
func cexString(c *Counterexample) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// pinnedReport holds a report's deterministic fields as the explorer's
// former replay-from-root mode produced them — every prefix re-executed
// on a fresh engine under sim.Controlled — before every program became
// a checkpointable frame and that mode was removed. cex is the FNV-1a
// hash of Counterexample.String() (noCex when there is none).
type pinnedReport struct {
	states, pruned, sleep, terminals, distinct, truncated, deepest int
	complete                                                       bool
	cex                                                            uint64
}

// noCex is the FNV-1a hash of the empty string: no counterexample.
const noCex = 0xcbf29ce484222325

// checkPinned holds a search to its pinned report. Sequential searches
// visit items in one deterministic order, so every field must match;
// parallel ones may shift the order-dependent counters (Pruned,
// SleepSkips, Terminals, Deepest) but not coverage or the verdict.
func checkPinned(t *testing.T, workers int, rep Report, want pinnedReport) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(cexString(rep.Counterexample)))
	if got := h.Sum64(); got != want.cex {
		t.Errorf("workers=%d: counterexample hash %#x, pinned %#x:\n%s", workers, got, want.cex, cexString(rep.Counterexample))
	}
	if rep.States != want.states || rep.DistinctTerminals != want.distinct ||
		rep.Truncated != want.truncated || rep.Complete != want.complete {
		t.Errorf("workers=%d: coverage diverges from the pinned from-root search: %+v vs %+v", workers, rep, want)
	}
	if workers == 1 && (rep.Pruned != want.pruned || rep.SleepSkips != want.sleep ||
		rep.Terminals != want.terminals || rep.Deepest != want.deepest) {
		t.Errorf("sequential counters diverge from the pinned from-root search: %+v vs %+v", rep, want)
	}
}

// fromRootOracle returns an Options.onExpand hook holding every
// expanded state to a from-root re-execution: the item's decision
// prefix, run on a fresh engine under sim.NewControlled, must reach the
// same StateKey and offer the same enabled choices as the restored (or
// warm) engine the search expanded. The returned counter tells the
// caller how many states were checked, so the check cannot pass
// vacuously.
func fromRootOracle(t *testing.T, setup Setup) (func([]int, uint64, []sim.Choice), *atomic.Int64) {
	t.Helper()
	top := setup.Topology
	if top == nil {
		top = ring.MustNew(setup.N)
	}
	checked := new(atomic.Int64)
	return func(prefix []int, key uint64, enabled []sim.Choice) {
		checked.Add(1)
		programs, err := setup.Programs()
		if err != nil {
			t.Error(err)
			return
		}
		ctrl := sim.NewControlled(prefix)
		eng, err := sim.NewEngine(top, setup.Homes, programs, sim.Options{
			Scheduler:  ctrl,
			Faults:     setup.Faults,
			Adversary:  setup.Adversary,
			TrackState: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := eng.Run(); err != nil {
			t.Errorf("prefix %v: from-root run failed: %v", prefix, err)
			return
		}
		if got := eng.StateKey(); got != key {
			t.Errorf("prefix %v: restored state key %#x, from-root %#x", prefix, key, got)
		}
		var want []sim.Choice
		if len(ctrl.Record) > len(prefix) {
			want = ctrl.Record[len(prefix)]
		}
		if !slices.Equal(enabled, want) {
			t.Errorf("prefix %v: restored enabled set %v, from-root %v", prefix, enabled, want)
		}
	}, checked
}

// exploreChecked runs one search with the from-root oracle attached.
func exploreChecked(t *testing.T, setup Setup, opts Options) Report {
	t.Helper()
	var checked *atomic.Int64
	opts.onExpand, checked = fromRootOracle(t, setup)
	rep, err := Explore(context.Background(), setup, opts)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Load() == 0 {
		t.Fatal("the from-root oracle checked no state")
	}
	return rep
}

// TestCheckpointReplayCrossCheck is the search-level soundness gate for
// the checkpoint/restore core, per algorithm × fault-timeline cell and
// at 1 and 4 workers: every expanded state must equal its from-root
// re-execution (fromRootOracle), and the report — coverage statistics,
// verdict, and counterexample bytes — must equal the one the former
// replay-from-root search produced for the cell.
func TestCheckpointReplayCrossCheck(t *testing.T) {
	algs := map[string]Factory{
		"alg1":    alg1Factory(2),
		"naive":   naiveFactory(2),
		"alg2":    alg2Factory(2),
		"relaxed": relaxedFactory(2),
	}
	pins := map[string]pinnedReport{
		"alg1/churn":        {states: 32, pruned: 9, sleep: 4, terminals: 1, distinct: 1, deepest: 15, complete: true, cex: noCex},
		"alg1/permanent":    {states: 6, terminals: 1, distinct: 1, deepest: 5, cex: 0x69f458819ebc54a2},
		"alg1/static":       {states: 31, pruned: 11, sleep: 5, terminals: 1, distinct: 1, deepest: 15, complete: true, cex: noCex},
		"alg1/transient":    {states: 25, pruned: 8, sleep: 2, terminals: 1, distinct: 1, deepest: 15, complete: true, cex: noCex},
		"alg2/churn":        {states: 47, pruned: 14, sleep: 7, terminals: 1, distinct: 1, deepest: 24, complete: true, cex: noCex},
		"alg2/permanent":    {states: 6, terminals: 1, distinct: 1, deepest: 5, cex: 0x69f458819ebc54a2},
		"alg2/static":       {states: 43, pruned: 14, sleep: 8, terminals: 1, distinct: 1, deepest: 24, complete: true, cex: noCex},
		"alg2/transient":    {states: 37, pruned: 11, sleep: 5, terminals: 1, distinct: 1, deepest: 24, complete: true, cex: noCex},
		"naive/churn":       {states: 94, pruned: 44, sleep: 10, terminals: 1, distinct: 1, deepest: 39, complete: true, cex: noCex},
		"naive/permanent":   {states: 6, terminals: 1, distinct: 1, deepest: 5, cex: 0x69f458819ebc54a2},
		"naive/static":      {states: 91, pruned: 47, sleep: 11, terminals: 1, distinct: 1, deepest: 39, complete: true, cex: noCex},
		"naive/transient":   {states: 85, pruned: 44, sleep: 7, terminals: 1, distinct: 1, deepest: 39, complete: true, cex: noCex},
		"relaxed/churn":     {states: 254, pruned: 140, sleep: 26, terminals: 1, distinct: 1, deepest: 103, complete: true, cex: noCex},
		"relaxed/permanent": {states: 6, terminals: 1, distinct: 1, deepest: 5, cex: 0x69f458819ebc54a2},
		"relaxed/static":    {states: 251, pruned: 143, sleep: 27, terminals: 1, distinct: 1, deepest: 103, complete: true, cex: noCex},
		"relaxed/transient": {states: 245, pruned: 140, sleep: 23, terminals: 1, distinct: 1, deepest: 103, complete: true, cex: noCex},
	}
	for algName, factory := range algs {
		for tlName, faults := range crosscheckTimelines() {
			name := algName + "/" + tlName
			t.Run(name, func(t *testing.T) {
				setup := Setup{N: 4, Homes: []ring.NodeID{0, 1}, Programs: factory, Faults: faults}
				for _, workers := range []int{1, 4} {
					rep := exploreChecked(t, setup, Options{Workers: workers})
					checkPinned(t, workers, rep, pins[name])
				}
			})
		}
	}
}

// TestCheckpointReplayCrossCheckPumped covers the remaining verdict
// shape — a property violation on a fault-free substrate (the pumped
// ring defeats the naive estimator, Theorem 5) — again demanding the
// pinned from-root report and counterexample bytes at 1 and 4 workers.
func TestCheckpointReplayCrossCheckPumped(t *testing.T) {
	n, homes, err := workload.Pumped(1, []ring.NodeID{0}, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{N: n, Homes: homes, Programs: naiveFactory(len(homes))}
	want := pinnedReport{states: 179, terminals: 1, distinct: 1, deepest: 178, cex: 0x87cda90eb2efc0e7}
	for _, workers := range []int{1, 4} {
		rep := exploreChecked(t, setup, Options{Workers: workers})
		if rep.Counterexample == nil {
			t.Fatalf("workers=%d: no counterexample on the pumped ring", workers)
		}
		checkPinned(t, workers, rep, want)
	}
}

// TestConfirmCexStopsWhereRunStops pins the three counterexample shapes
// confirmCex rebuilds besides property violations, byte for byte as
// the former replay-from-root search reported them: a step-limit
// overrun ends before the decision it refuses, a move-bound overrun at
// the state that exceeds it, and a program error (rendezvous on a
// periodic ring) includes the failing action but not its step.
func TestConfirmCexStopsWhereRunStops(t *testing.T) {
	rendezvousPair := func() ([]sim.Program, error) {
		ps := make([]sim.Program, 2)
		for i := range ps {
			p, err := rendezvous.New(2)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return ps, nil
	}
	cases := []struct {
		name  string
		setup Setup
		opts  Options
		steps int
		want  string
	}{
		{"steplimit", Setup{N: 4, Homes: []ring.NodeID{0, 1}, Programs: alg1Factory(2)}, Options{MaxSteps: 5}, 5,
			`counterexample after 5 decisions: sim: step limit exceeded before quiescence (limit 5)
  decision   0 (choice 0): agent 0 arrives at node 0
  decision   1 (choice 0): agent 1 arrives at node 1
  decision   2 (choice 0): agent 0 arrives at node 1
  decision   3 (choice 0): agent 1 arrives at node 2
  decision   4 (choice 0): agent 0 arrives at node 2
  final positions: [2 2]
`},
		{"moves", Setup{N: 4, Homes: []ring.NodeID{0, 1}, Programs: alg1Factory(2)}, Options{MaxTotalMoves: 3}, 4,
			`counterexample after 4 decisions: total moves 4 exceed bound 3
  decision   0 (choice 0): agent 0 arrives at node 0
  decision   1 (choice 0): agent 1 arrives at node 1
  decision   2 (choice 0): agent 0 arrives at node 1
  decision   3 (choice 0): agent 1 arrives at node 2
  final positions: [1 2]
`},
		{"programerror", Setup{N: 4, Homes: []ring.NodeID{0, 2}, Programs: rendezvousPair}, Options{}, 7,
			`counterexample after 8 decisions: agent 1 failed: rendezvous: periodic configuration, symmetry cannot be broken
  decision   0 (choice 0): agent 0 arrives at node 0
  decision   1 (choice 0): agent 0 arrives at node 1
  decision   2 (choice 0): agent 1 arrives at node 2
  decision   3 (choice 0): agent 0 arrives at node 2
  decision   4 (choice 0): agent 1 arrives at node 3
  decision   5 (choice 0): agent 1 arrives at node 0
  decision   6 (choice 0): agent 1 arrives at node 1
  decision   7 (choice 0): agent 1 arrives at node 2
  final positions: [2 2]
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				rep, err := Explore(context.Background(), tc.setup, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := cexString(rep.Counterexample); got != tc.want {
					t.Fatalf("workers=%d: counterexample:\n%s\nwant:\n%s", workers, got, tc.want)
				}
				if got := rep.Counterexample.Result.Steps; got != tc.steps {
					t.Errorf("workers=%d: counterexample result has %d steps, want %d", workers, got, tc.steps)
				}
			}
		})
	}
}
