package jobs

import (
	"errors"
	"fmt"
	"time"

	"agentring"
	"agentring/internal/experiments"
)

// ErrSpec wraps every spec validation/compilation error.
var ErrSpec = errors.New("jobs: invalid spec")

// Kind selects what a job does.
type Kind string

// Job kinds.
const (
	// KindRun executes one configuration and reports it as one cell.
	KindRun Kind = "run"
	// KindSweep executes a grid of configurations (Ns x Ks) as one job,
	// one cell per grid point, batched over the worker pool.
	KindSweep Kind = "sweep"
	// KindExplore model-checks one configuration's schedule space
	// (agentring.Explore). Explorations are single-cell; the job context
	// reaches into the search, so job.cancel interrupts an exploration
	// mid-flight (within roughly one expansion per worker), and the search
	// streams "progress" events carrying live explorer counters.
	KindExplore Kind = "explore"
)

// Spec is the JSON-serializable description of one job, the payload of
// the job.submit RPC. Algorithms, topologies, workloads, schedulers and
// fault plans are all named by the same strings the CLIs already use,
// so a spec never embeds Go constant values.
type Spec struct {
	Kind      Kind   `json:"kind"`
	Algorithm string `json:"algorithm"`          // native | native-n | logspace | relaxed | naive | firstfit | binative
	Topology  string `json:"topology,omitempty"` // agentring.ParseTopology spec; "" = unidirectional ring
	N         int    `json:"n,omitempty"`
	K         int    `json:"k,omitempty"`
	// Homes pins the initial placement explicitly (run/explore only);
	// empty selects the Workload generator.
	Homes    []int  `json:"homes,omitempty"`
	Workload string `json:"workload,omitempty"` // random | clustered | uniform | periodic; "" = random
	Degree   int    `json:"degree,omitempty"`   // symmetry degree for the periodic workload
	Seed     int64  `json:"seed,omitempty"`
	// Scheduler names the interleaving policy for run/sweep cells:
	// roundrobin (default) | random | synchronous | adversarial.
	Scheduler string `json:"scheduler,omitempty"`
	Faults    string `json:"faults,omitempty"` // named DynRing plan or raw agentring.ParseFaults spec
	// Adversary attaches an online fault adversary to an explore job, in
	// agentring.ParseAdversary "K/D[/T]" syntax: the search then branches
	// over link failures and repairs within the budget, and the report
	// carries the worst-outage verdict. KindExplore only; mutually
	// exclusive with Faults. This is what overnight adversary sweeps
	// submit, one explore job per (placement, budget) cell.
	Adversary string `json:"adversary,omitempty"`
	// Ns/Ks widen a sweep into a grid; empty axes default to {N}/{K}.
	// Grid points with k > n/2 are skipped (unscatterable), mirroring
	// the sweep CLI's Table 1 grids.
	Ns []int `json:"ns,omitempty"`
	Ks []int `json:"ks,omitempty"`
	// Explore bounds (KindExplore only); zero selects the defaults.
	// MaxDurationMS is a wall-clock budget in milliseconds: expiring it
	// truncates the search (complete=false), it does not fail the job.
	MaxDepth      int `json:"max_depth,omitempty"`
	MaxStates     int `json:"max_states,omitempty"`
	MaxTotalMoves int `json:"max_total_moves,omitempty"`
	MaxDurationMS int `json:"max_duration_ms,omitempty"`
	// Workers sizes the explorer's work-stealing pool (KindExplore
	// only; run/sweep parallelism is the engine's worker pool). The
	// covered state set and any counterexample are identical for every
	// value — but effort diagnostics (pruned, replays, sleep_skips,
	// deepest) are visit-order dependent and so only reproducible
	// run-to-run at the default of sequential search.
	Workers int `json:"workers,omitempty"`
	// Priority orders the queue: higher runs earlier, FIFO within a
	// priority.
	Priority int `json:"priority,omitempty"`
	// TraceEvents, if positive, streams up to that many live execution
	// events from the job's cells to event subscribers.
	TraceEvents int `json:"trace_events,omitempty"`
}

// ParseAlgorithm resolves the spec's algorithm name.
func ParseAlgorithm(name string) (agentring.Algorithm, error) {
	switch name {
	case "native":
		return agentring.Native, nil
	case "native-n":
		return agentring.NativeKnowN, nil
	case "logspace":
		return agentring.LogSpace, nil
	case "relaxed":
		return agentring.Relaxed, nil
	case "naive":
		return agentring.NaiveHalting, nil
	case "firstfit":
		return agentring.FirstFit, nil
	case "binative":
		return agentring.BiNative, nil
	default:
		return 0, fmt.Errorf("%w: unknown algorithm %q", ErrSpec, name)
	}
}

func parseScheduler(name string) (agentring.SchedulerKind, error) {
	switch name {
	case "", "roundrobin":
		return agentring.RoundRobin, nil
	case "random":
		return agentring.RandomSched, nil
	case "synchronous":
		return agentring.Synchronous, nil
	case "adversarial":
		return agentring.Adversarial, nil
	default:
		return 0, fmt.Errorf("%w: unknown scheduler %q", ErrSpec, name)
	}
}

func parseWorkload(name string) (experiments.WorkloadKind, error) {
	switch name {
	case "", "random":
		return experiments.WorkloadRandom, nil
	case "clustered":
		return experiments.WorkloadClustered, nil
	case "uniform":
		return experiments.WorkloadUniform, nil
	case "periodic":
		return experiments.WorkloadPeriodic, nil
	default:
		return "", fmt.Errorf("%w: unknown workload %q", ErrSpec, name)
	}
}

// compiled is a spec resolved into executable form: the cell list for
// run/sweep jobs, or the explore configuration.
type compiled struct {
	cells   []agentring.Job // run, sweep
	alg     agentring.Algorithm
	explore *agentring.Config // explore
	opts    agentring.ExploreOptions
}

// cellConfig materializes one grid cell's configuration.
func (s Spec) cellConfig(n, k int, seed int64) (agentring.Config, error) {
	wl, err := parseWorkload(s.Workload)
	if err != nil {
		return agentring.Config{}, err
	}
	sched, err := parseScheduler(s.Scheduler)
	if err != nil {
		return agentring.Config{}, err
	}
	espec := experiments.Spec{
		N:         n,
		K:         k,
		Workload:  wl,
		Degree:    s.Degree,
		Seed:      seed,
		Scheduler: sched,
		Topology:  s.Topology,
		Faults:    s.Faults,
	}
	cfg, err := espec.Config()
	if err != nil {
		return agentring.Config{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if len(s.Homes) > 0 {
		cfg.Homes = append([]int(nil), s.Homes...)
	}
	return cfg, nil
}

// compile validates the spec and resolves it into executable form.
// Every failure mode wraps ErrSpec so admission can reject bad specs
// before they occupy queue space.
func (s Spec) compile() (compiled, error) {
	alg, err := ParseAlgorithm(s.Algorithm)
	if err != nil {
		return compiled{}, err
	}
	if s.Adversary != "" && s.Kind != KindExplore {
		return compiled{}, fmt.Errorf("%w: adversary budgets are explore-only (the engine's run path replays fixed fault schedules)", ErrSpec)
	}
	switch s.Kind {
	case KindRun:
		cfg, err := s.cellConfig(s.N, s.K, s.Seed)
		if err != nil {
			return compiled{}, err
		}
		return compiled{alg: alg, cells: []agentring.Job{{Algorithm: alg, Config: cfg}}}, nil
	case KindSweep:
		if len(s.Homes) > 0 {
			return compiled{}, fmt.Errorf("%w: sweep jobs generate placements from the workload; homes is run/explore-only", ErrSpec)
		}
		ns, ks := s.Ns, s.Ks
		if len(ns) == 0 {
			ns = []int{s.N}
		}
		if len(ks) == 0 {
			ks = []int{s.K}
		}
		var cells []agentring.Job
		for _, n := range ns {
			for _, k := range ks {
				if k > n/2 {
					continue
				}
				cfg, err := s.cellConfig(n, k, s.Seed+int64(n*1000+k))
				if err != nil {
					return compiled{}, err
				}
				cells = append(cells, agentring.Job{Algorithm: alg, Config: cfg})
			}
		}
		if len(cells) == 0 {
			return compiled{}, fmt.Errorf("%w: sweep grid ns=%v ks=%v has no scatterable cell (need k <= n/2)", ErrSpec, ns, ks)
		}
		return compiled{alg: alg, cells: cells}, nil
	case KindExplore:
		cfg, err := s.cellConfig(s.N, s.K, s.Seed)
		if err != nil {
			return compiled{}, err
		}
		opts := agentring.ExploreOptions{
			Budget: agentring.Budget{
				MaxDepth:      s.MaxDepth,
				MaxStates:     s.MaxStates,
				MaxTotalMoves: s.MaxTotalMoves,
				MaxDuration:   time.Duration(s.MaxDurationMS) * time.Millisecond,
			},
			Workers: s.Workers,
		}
		if s.Adversary != "" {
			if s.Faults != "" {
				return compiled{}, fmt.Errorf("%w: adversary and faults are mutually exclusive", ErrSpec)
			}
			budget, err := agentring.ParseAdversary(s.Adversary)
			if err != nil {
				return compiled{}, fmt.Errorf("%w: %v", ErrSpec, err)
			}
			opts.Adversary = &budget
		}
		return compiled{alg: alg, explore: &cfg, opts: opts}, nil
	default:
		return compiled{}, fmt.Errorf("%w: unknown kind %q", ErrSpec, s.Kind)
	}
}

// CellResult is one completed cell of a run/sweep job, in the stable
// JSON shape shared by the daemon's job.result payload, the client's
// -local path, and the sweep CLI's NDJSON rows.
type CellResult struct {
	Index     int    `json:"index"`
	Algorithm string `json:"algorithm"`
	Topology  string `json:"topology"`
	N         int    `json:"n"`
	K         int    `json:"k"`
	Homes     []int  `json:"homes"`
	Uniform   bool   `json:"uniform"`
	Why       string `json:"why,omitempty"`
	Positions []int  `json:"positions"`
	Gaps      []int  `json:"gaps"`
	Moves     int    `json:"total_moves"`
	MaxMoves  int    `json:"max_moves"`
	Rounds    int    `json:"rounds"`
	Steps     int    `json:"steps"`
	PeakWords int    `json:"peak_words"`
	PeakBits  int    `json:"peak_bits"`
	Messages  int    `json:"messages"`
	Error     string `json:"error,omitempty"`
}

// Result is a finished job's payload: cells for run/sweep jobs, the
// exploration report for explore jobs.
type Result struct {
	Kind    Kind                     `json:"kind"`
	Cells   []CellResult             `json:"cells,omitempty"`
	Explore *agentring.ExploreReport `json:"explore,omitempty"`
}

func cellResult(i int, res agentring.JobResult) CellResult {
	out := CellResult{
		Index:     i,
		Algorithm: res.Job.Algorithm.String(),
		N:         res.Job.Config.N,
		K:         len(res.Job.Config.Homes),
		Homes:     res.Job.Config.Homes,
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	rep := res.Report
	out.Topology = rep.Topology
	out.N = rep.N
	out.K = rep.K
	out.Uniform = rep.Uniform
	out.Why = rep.Why
	out.Positions = rep.Positions
	out.Gaps = rep.Gaps
	out.Moves = rep.TotalMoves
	out.MaxMoves = rep.MaxMoves
	out.Rounds = rep.Rounds
	out.Steps = rep.Steps
	out.PeakWords = rep.PeakWords
	out.PeakBits = rep.PeakBits
	out.Messages = rep.MessagesSent
	return out
}
