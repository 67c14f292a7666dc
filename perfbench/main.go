// Command perfbench is the repository benchmark. One invocation runs
// one named workload in a single process against the agentring
// packages, checks every verdict against the expected-answer file, and
// prints its metrics, the last line being one JSON object:
//
//	bash perfbench/run.sh --workload explore-native --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run times the same phase with spans on, once more with them off
// for the tracing overhead, and adds the layer probes, reporting the
// per-layer metrics. NOTES.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDecl names one reported metric and its unit; the lists below
// match BENCHMARK.json.
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
}

// failFracDecl is reported in every summary and, being 0 on a correct
// run, as a per-layer figure rather than a bounded end-to-end one.
var failFracDecl = metricDecl{"fail_frac", "ratio"}

var perLayer = []metricDecl{
	failFracDecl,
	{"explore.states", "count"},
	{"explore.expansions", "count"},
	{"explore.truncated", "count"},
	{"explore.cache_hits", "count"},
	{"explore.ns_per_state", "ns"},
	{"explore.cache_hit_ratio", "ratio"},
	{"explore.sleep_skips_per_state", "count/state"},
	{"explore.steps_per_state", "count/state"},
	{"explore.cpu_ns_per_state", "ns"},
	{"explore.cpu_ns_per_state.workers1", "ns"},
	{"explore.parallel_cpu_ratio", "ratio"},
	{"explore.allocs_per_state", "count/state"},
	{"explore.alloc_bytes_per_state", "B/state"},
	{"sim.decision_point_ns", "ns"},
	{"sim.apply_choice_ns", "ns"},
	{"sim.state_key_ns", "ns"},
	{"sim.checkpoint_ns", "ns"},
	{"sim.restore_ns", "ns"},
	{"sim.new_engine_us", "us"},
	{"sim.replay_ns_per_step", "ns"},
	{"sim.run_ns_per_step.synchronous", "ns"},
	{"sim.run_ns_per_step.roundrobin", "ns"},
	{"sim.steps", "count"},
	{"core.moves", "count"},
	{"core.rounds", "count"},
	{"core.peak_words", "count"},
	{"agentring.run_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"rpc.roundtrip_us", "us"},
	{"rpc.submit_us", "us"},
	{"rpc.result_us", "us"},
	{"rpc.result_bytes", "B"},
	{"self_s.bench", "s"},
	{"self_s.experiments", "s"},
	{"self_s.agentring", "s"},
	{"self_s.sim", "s"},
	{"self_s.core", "s"},
	{"self_s.jobs", "s"},
	{"self_s.rpc", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) error{
	"explore-native":    exploreWorkload,
	"explore-logspace":  exploreWorkload,
	"explore-adversary": exploreWorkload,
	"daemon-table1":     daemonWorkload,
}

// env is one benchmark run's configuration and what it has measured.
type env struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	tr       *tracer
	// cal restates an untraced run's timings at a reference host speed.
	cal *calibrator
	// expected is the expected-answer file's content.
	expected []byte
	exp      expectations
	tally    tally
	notes    []string // summary lines for the human reader
	// outDir receives the span file; workDir, under it, the daemon
	// sockets of this run.
	outDir, workDir string
	e2e             map[string]float64
	layers          map[string]float64
}

func newEnv(workload string, seed int64, budget time.Duration, traced bool, outDir string) (*env, error) {
	cal, err := newCalibrator(!traced)
	if err != nil {
		return nil, err
	}
	return &env{
		workload: workload,
		seed:     seed,
		budget:   budget,
		traced:   traced,
		tr:       newTracer(traced),
		cal:      cal,
		expected: expectedJSON,
		outDir:   outDir,
		workDir:  filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid())),
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
	}, nil
}

func (e *env) addLayers(m map[string]float64) {
	for k, v := range m {
		e.layers[k] = v
	}
}

// tally counts operations and failures. An operation is one placement
// or one job; a failed sweep-level check counts as one failure.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) op(err error, format string, args ...any) {
	t.attempted++
	t.check(err, format, args...)
}

func (t *tally) check(err error, format string, args ...any) {
	if err == nil {
		return
	}
	t.failed = min(t.failed+1, max(t.attempted, 1))
	t.errs = append(t.errs, fmt.Sprintf(format, args...)+": "+err.Error())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: explore-native | explore-logspace | explore-adversary | daemon-table1")
	seed := fs.Int64("seed", 1, "workload seed (the explore-* workloads enumerate every placement and record it unused)")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		return 2
	}
	e, err := newEnv(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := e.measure(ctx, runner)
	if cerr := e.cal.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, msg := range e.tally.errs {
		fmt.Fprintf(stderr, "perfbench: mismatch: %s\n", msg)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v attempted=%d failed=%d\n", e.workload, e.seed, e.traced, res.Attempted, res.Failed)
	for _, n := range e.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if !e.traced {
		// The human summary carries fail_frac beside the bounded metrics.
		fmt.Fprintf(stdout, "# %s = %g %s\n", failFracDecl.name, e.layers[failFracDecl.name], failFracDecl.unit)
	}
	for _, name := range names {
		fmt.Fprintf(stdout, "# %s = %g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and assembles the result line.
func (e *env) measure(ctx context.Context, runner func(context.Context, *env) error) (result, error) {
	defer os.RemoveAll(e.workDir)
	exp, err := loadExpectations(e.expected)
	if err != nil {
		return result{}, err
	}
	e.exp = exp
	if err := runner(ctx, e); err != nil {
		return result{}, err
	}
	ff, err := failFrac(e.tally.attempted, e.tally.failed)
	if err != nil {
		return result{}, err
	}
	e.layers[failFracDecl.name] = ff
	decls, values := endToEnd, e.e2e
	if e.traced {
		spans := e.tr.finished()
		for layer, d := range selfTimes(spans) {
			e.layers["self_s."+layer] = d.Seconds()
		}
		e.layers["trace.spans"] = float64(len(spans))
		path := filepath.Join(e.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
		if err := e.tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		decls, values = perLayer, e.layers
	}
	res := result{Correct: e.tally.failed == 0, Attempted: e.tally.attempted, Failed: e.tally.failed,
		Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS watermark (VmHWM), so a
// later peakRSSMB reads the peak of what ran in between. Where the
// reset is refused, the watermark covers the whole process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak-RSS watermark, falling back to getrusage's
// whole-process peak where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(rest, "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rep is one repetition of a workload's timed unit: its wall and CPU
// time and the peak RSS while it ran.
type rep struct {
	wall, cpu time.Duration
	rssMB     float64
}

// timed runs f once and measures it, less the calibration samples
// taken inside it and the calibrator's resident tables. Every unit
// starts from a collected heap returned to the system, so its peak
// memory does not depend on what ran before it.
func (e *env) timed(f func() error) (rep, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	t0, c0 := time.Now(), cpuTime()
	calWall, calCPU := e.cal.wall, e.cal.cpu
	err := f()
	wall, cpu := time.Since(t0), cpuTime()-c0
	return rep{wall: wall - (e.cal.wall - calWall), cpu: cpu - (e.cal.cpu - calCPU), rssMB: peakRSSMB() - e.cal.footprintMB}, err
}

// repeat runs once at least one time, and again while another run is
// predicted, from the median so far, to end within budget.
func repeat(budget time.Duration, once func() error) error {
	start := time.Now()
	var walls []float64
	for {
		t0 := time.Now()
		if err := once(); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if time.Since(start).Seconds()+median(walls) > budget.Seconds() {
			return nil
		}
	}
}

// setE2E fills the end-to-end timings from the setups, the timed
// repetitions and the per-job latencies. p90 must have minTail samples
// beyond it unless tailOptional (an explore-* run holds only a few
// sweeps; see NOTES.md).
func (e *env) setE2E(setups []float64, reps []rep, latMS []float64, tailOptional bool) error {
	var walls, cpus, rss []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
	}
	p90, err := tailPercentile(latMS, 0.9)
	if err != nil {
		if !tailOptional {
			return err
		}
		p90, _ = percentile(latMS, 0.9)
	}
	raw := map[string]float64{
		"setup_s":    median(setups),
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"job_p50_ms": median(latMS),
		"job_p90_ms": p90,
	}
	f := e.cal.factor()
	for name, v := range raw {
		e.e2e[name] = v * f
	}
	e.e2e["peak_rss_mb"] = median(rss)
	e.notes = append(e.notes, fmt.Sprintf("host speed factor %.4f from %d calibration samples; raw setup_s %g, wall_s %g, cpu_s %g, job_p50_ms %g, job_p90_ms %g",
		f, len(e.cal.samples), raw["setup_s"], raw["wall_s"], raw["cpu_s"], raw["job_p50_ms"], raw["job_p90_ms"]))
	return nil
}
