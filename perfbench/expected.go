package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"agentring"
	"agentring/internal/jobs"
)

// expectedJSON holds the known answer for every operation the benchmark
// runs, with where each answer comes from.
//
//go:embed expected.json
var expectedJSON []byte

// exploreCase is one model-checking question of an explore-* workload.
type exploreCase struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"` // jobs.ParseAlgorithm name
	N         int    `json:"n"`
	// Homes pins one placement; empty means every rotation-distinct
	// placement of the n-ring.
	Homes     []int  `json:"homes,omitempty"`
	Workers   int    `json:"workers"`
	Adversary string `json:"adversary,omitempty"` // agentring.ParseAdversary syntax
	// Verdict is "uniform" (every placement complete, untruncated and
	// counterexample-free) or "counterexample".
	Verdict string `json:"verdict"`
	// Placements is the expected number of placements in a sweep.
	Placements int `json:"placements"`
	// States, if positive, is the exact total of Report.States over a
	// sweep. Only pinned at workers=1, where it is visit-order free.
	States int    `json:"states,omitempty"`
	Source string `json:"source"`
}

// expectations is the parsed expected-answer file.
type expectations struct {
	Explore []exploreCase `json:"explore"`
	Table1  struct {
		Verdict string `json:"verdict"`
		Source  string `json:"source"`
	} `json:"table1"`
}

func loadExpectations(raw []byte) (expectations, error) {
	var e expectations
	if err := json.Unmarshal(raw, &e); err != nil {
		return e, fmt.Errorf("expected answers: %w", err)
	}
	for _, c := range e.Explore {
		if _, err := jobs.ParseAlgorithm(c.Algorithm); err != nil {
			return e, fmt.Errorf("expected answers for %s: %w", c.Workload, err)
		}
		if c.Verdict != "uniform" && c.Verdict != "counterexample" {
			return e, fmt.Errorf("expected answers for %s: unknown verdict %q", c.Workload, c.Verdict)
		}
	}
	if e.Table1.Verdict != "uniform" {
		return e, fmt.Errorf("expected answers: table1 verdict %q, want uniform", e.Table1.Verdict)
	}
	return e, nil
}

// cases returns the explore cases of one workload.
func (e expectations) cases(workload string) []exploreCase {
	var out []exploreCase
	for _, c := range e.Explore {
		if c.Workload == workload {
			out = append(out, c)
		}
	}
	return out
}

// checkExplore compares one placement's exploration with the case's
// verdict; nil means it agrees.
func checkExplore(c exploreCase, rep agentring.ExploreReport, err error) error {
	if err != nil {
		return err
	}
	switch c.Verdict {
	case "counterexample":
		if rep.Counterexample == nil {
			return fmt.Errorf("no counterexample, want one")
		}
	default:
		if rep.Counterexample != nil {
			return fmt.Errorf("counterexample: %s", rep.Counterexample.Reason)
		}
		if !rep.Complete || rep.Truncated != 0 {
			return fmt.Errorf("search incomplete (%d truncated)", rep.Truncated)
		}
		if c.Adversary != "" && (rep.WorstOutage == nil || rep.WorstOutage.Breaks) {
			return fmt.Errorf("worst outage %+v, want a tolerant verdict", rep.WorstOutage)
		}
	}
	return nil
}

// checkSweep compares a sweep's totals with the case: the placement
// count always, the exact state total where pinned.
func checkSweep(c exploreCase, placements, states int) error {
	if c.Placements != placements {
		return fmt.Errorf("%d placements, want %d", placements, c.Placements)
	}
	if c.States > 0 && c.States != states {
		return fmt.Errorf("%d states, want exactly %d", states, c.States)
	}
	return nil
}

// rowStats are the simulated statistics of one Table-1 run; a speed-only
// change must leave them identical.
type rowStats struct {
	Moves, Rounds, PeakWords, Steps int
}

func (r rowStats) String() string {
	return fmt.Sprintf("moves=%d rounds=%d peak_words=%d steps=%d", r.Moves, r.Rounds, r.PeakWords, r.Steps)
}

// checkCell checks one daemon row against the Table-1 verdict.
func checkCell(res jobs.Result) (rowStats, error) {
	if len(res.Cells) != 1 {
		return rowStats{}, fmt.Errorf("%d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.Error != "" {
		return rowStats{}, fmt.Errorf("cell error: %s", cell.Error)
	}
	if !cell.Uniform {
		return rowStats{}, fmt.Errorf("not uniform: %s", cell.Why)
	}
	return rowStats{Moves: cell.Moves, Rounds: cell.Rounds, PeakWords: cell.PeakWords, Steps: cell.Steps}, nil
}
