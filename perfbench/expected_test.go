package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"agentring/internal/jobs"
)

func TestExpectedFileCoversEveryExploreWorkload(t *testing.T) {
	exp, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		if strings.HasPrefix(name, "explore-") && len(exp.cases(name)) == 0 {
			t.Errorf("no expected answer for %s", name)
		}
	}
	for _, c := range exp.Explore {
		if c.Source == "" {
			t.Errorf("%s %s n=%d: answer has no source", c.Workload, c.Algorithm, c.N)
		}
		if c.States > 0 && c.Workers > 1 {
			t.Errorf("%s: states pinned at workers=%d, where they are only guaranteed at workers=1", c.Workload, c.Workers)
		}
	}
}

// smallExpectations is an expected-answer file for a fast explore-native
// stand-in: Native on the 4-ring and the Theorem 5 instance.
func smallExpectations(t *testing.T, edit func(*expectations)) []byte {
	t.Helper()
	exp, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	exp.Explore = []exploreCase{
		{Workload: "explore-native", Algorithm: "native", N: 4, Workers: 1, Verdict: "uniform", Placements: 5, Source: "test"},
		{Workload: "explore-native", Algorithm: "naive", N: 8, Homes: []int{0, 1, 2, 3, 4}, Workers: 1, Verdict: "counterexample", Placements: 1, Source: "test"},
	}
	if edit != nil {
		edit(&exp)
	}
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func testEnv(t *testing.T, workload string, seed int64, budget time.Duration, traced bool, outDir string) *env {
	t.Helper()
	e, err := newEnv(workload, seed, budget, traced, outDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.cal.close(); err != nil {
			t.Error(err)
		}
	})
	return e
}

func runSmall(t *testing.T, expected []byte) (result, *env) {
	t.Helper()
	e := testEnv(t, "explore-native", 1, time.Millisecond, false, t.TempDir())
	e.expected = expected
	res, err := e.measure(context.Background(), exploreWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// TestWrongExpectedAnswerFailsTheRun: the right answers pass, and each
// kind of wrong answer — a verdict, an exact state count, a placement
// count — makes the run incorrect.
func TestWrongExpectedAnswerFailsTheRun(t *testing.T) {
	res, e := runSmall(t, smallExpectations(t, nil))
	if !res.Correct || res.Failed != 0 || res.Attempted != 6 {
		t.Fatalf("right answers: %+v, mismatches %v", res, e.tally.errs)
	}
	// The note reads "native n=4 workers=1: 5 placements, <states> states per sweep, ...".
	states := 0
	for _, n := range e.notes {
		if _, after, ok := strings.Cut(n, "native n=4 workers=1: 5 placements, "); ok {
			if _, err := fmt.Sscanf(after, "%d", &states); err != nil {
				t.Fatal(err)
			}
		}
	}
	if states == 0 {
		t.Fatalf("no state count in notes %v", e.notes)
	}
	for name, edit := range map[string]func(*expectations){
		"verdict":    func(x *expectations) { x.Explore[1].Verdict = "uniform" },
		"states":     func(x *expectations) { x.Explore[0].States = states + 1 },
		"placements": func(x *expectations) { x.Explore[0].Placements = 4 },
	} {
		res, _ := runSmall(t, smallExpectations(t, edit))
		if res.Correct || res.Failed == 0 {
			t.Errorf("wrong %s passed: %+v", name, res)
		}
	}
	res, _ = runSmall(t, smallExpectations(t, func(x *expectations) { x.Explore[0].States = states }))
	if !res.Correct {
		t.Errorf("exact state count %d rejected: %+v", states, res)
	}
}

func TestCheckCellRejectsNonUniformRows(t *testing.T) {
	if _, err := checkCell(jobs.Result{Cells: []jobs.CellResult{{Uniform: false, Why: "two agents share node 4"}}}); err == nil {
		t.Error("non-uniform row accepted")
	}
	if _, err := checkCell(jobs.Result{Cells: []jobs.CellResult{{Uniform: true, Error: "boom"}}}); err == nil {
		t.Error("errored row accepted")
	}
	r, err := checkCell(jobs.Result{Cells: []jobs.CellResult{{Uniform: true, Moves: 3, Rounds: 2, PeakWords: 5, Steps: 4}}})
	if err != nil || r != (rowStats{Moves: 3, Rounds: 2, PeakWords: 5, Steps: 4}) {
		t.Errorf("uniform row: %v, %v", r, err)
	}
}

// TestInProcessCrossCheckCatchesADifferingRow: a daemon row whose
// statistics differ from agentring.Run of the same spec is a failure.
func TestInProcessCrossCheckCatchesADifferingRow(t *testing.T) {
	list, err := table1Jobs(7)
	if err != nil {
		t.Fatal(err)
	}
	var small []table1Job
	for _, j := range list {
		if j.spec.N == 64 {
			small = append(small, j)
		}
	}
	e := testEnv(t, "daemon-table1", 7, time.Millisecond, false, t.TempDir())
	local, err := runLocal(e, small, nil, "", 0)
	if err != nil || e.tally.failed != 0 {
		t.Fatalf("in-process pass: %v, %v", err, e.tally.errs)
	}
	rows := append([]rowStats(nil), local.rows...)
	rows[3].Moves++
	if _, err := runLocal(e, small, rows, "", 0); err != nil || e.tally.failed != 1 {
		t.Errorf("differing row: err %v, %d failures", err, e.tally.failed)
	}
}

func TestExactCountGuards(t *testing.T) {
	e := testEnv(t, "explore-native", 1, 0, false, t.TempDir())
	e.tally.attempted = 4
	plans := []sweepPlan{{c: exploreCase{Algorithm: "native", N: 4}}}
	guardStates(e, plans, []sweepResult{{states: []int{10}}, {states: []int{10}}})
	if e.tally.failed != 0 {
		t.Fatalf("equal sweeps flagged: %v", e.tally.errs)
	}
	guardStates(e, plans, []sweepResult{{states: []int{10}}, {states: []int{11}}})
	if e.tally.failed != 1 {
		t.Errorf("differing sweeps not flagged")
	}
	a := rowStats{Moves: 1, Rounds: 2, PeakWords: 3, Steps: 4}
	b := a
	b.Rounds++
	guardRows(e, []passResult{{rows: []rowStats{a}}, {rows: []rowStats{b}}})
	if e.tally.failed != 2 {
		t.Errorf("differing passes not flagged")
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric and workload names
// and units in the code equal to the repository's BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, decls []metricDecl, got []struct{ Name, Unit string }) {
		if len(decls) != len(got) {
			t.Errorf("%s: %d declared, BENCHMARK.json has %d", what, len(decls), len(got))
			return
		}
		for i, d := range decls {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s %s, BENCHMARK.json %s %s", what, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for name := range workloads {
		code = append(code, name)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, " ") != strings.Join(code, " ") {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", code, names)
	}
}

// TestTracedRunMeasuresEveryPerLayerMetric runs a small traced
// explore-native stand-in: measure fails if any declared per-layer
// metric was not measured, and the exact counts must be positive.
func TestTracedRunMeasuresEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probes and a daemon pass")
	}
	e := testEnv(t, "explore-native", 1, time.Millisecond, true, t.TempDir())
	e.expected = smallExpectations(t, func(x *expectations) {
		x.Explore = append(x.Explore, exploreCase{Workload: "explore-logspace", Algorithm: "logspace", N: 4,
			Workers: 1, Verdict: "uniform", Placements: 5, Source: "test"})
	})
	res, err := e.measure(context.Background(), exploreWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run: correct=%v, %d metrics, want %d; mismatches %v", res.Correct, len(res.Metrics), len(perLayer), e.tally.errs)
	}
	for _, name := range []string{"explore.states", "sim.steps", "core.moves", "trace.spans", "self_s.rpc"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}
