package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"agentring"
	"agentring/internal/experiments"
	"agentring/internal/jobs"
	"agentring/internal/rpc"
)

// The Table-1 grid of one pass: n from cmd/sweep's default grid, k
// from its -big grid up to 64, so the synchronous scheduler's O(k) step
// shows. experiments.Table1Specs skips the cells with k > n/2.
var (
	table1Ns   = []int{64, 128, 256}
	table1Ks   = []int{4, 16, 64}
	table1Algs = []string{"native", "logspace"}
)

// table1MinJobs is the least number of synchronous jobs in one pass:
// the grid is repeated over consecutive seeds until it is reached. The
// job sizes depend on the placements, so a pass samples many of them
// and its latency percentiles move little from one workload seed to
// the next.
const table1MinJobs = 400

// The round-robin runs of a pass: the -big grid's largest cell, run
// under the round-robin scheduler, which takes the engine's fast path.
const (
	roundRobinN, roundRobinK = 4096, 256
	roundRobinRuns           = 8
)

// table1Job is one run job and the experiments spec it was made from,
// which the in-process cross-check runs.
type table1Job struct {
	spec jobs.Spec
	cell experiments.Spec
}

// table1Jobs builds one pass from experiments.Table1Specs: the grid for
// Native and LogSpace over seeds derived from the workload seed, then
// the round-robin runs, shuffled with the seed. A job names its
// placement by workload and seed, so the daemon derives the homes the
// in-process run of the same cell gets.
func table1Jobs(seed int64) ([]table1Job, error) {
	base := seed * table1MinJobs
	var out []table1Job
	add := func(alg string, cells []experiments.Spec) {
		for _, c := range cells {
			sched := "synchronous"
			if c.Scheduler == agentring.RoundRobin {
				sched = "roundrobin"
			}
			out = append(out, table1Job{cell: c, spec: jobs.Spec{Kind: jobs.KindRun, Algorithm: alg, N: c.N, K: c.K,
				Workload: string(c.Workload), Seed: c.Seed, Scheduler: sched}})
		}
	}
	for rep := int64(0); len(out) < table1MinJobs; rep++ {
		for _, name := range table1Algs {
			alg, err := jobs.ParseAlgorithm(name)
			if err != nil {
				return nil, err
			}
			add(name, experiments.Table1Specs(alg, table1Ns, table1Ks, base+rep))
		}
	}
	for i := int64(0); i < roundRobinRuns; i++ {
		c := experiments.Table1Specs(agentring.Native, []int{roundRobinN}, []int{roundRobinK}, base+i)[0]
		c.Scheduler = agentring.RoundRobin
		add("native", []experiments.Spec{c})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// daemon is a jobs.Engine behind an rpc.Server on a Unix socket, plus
// one dialled client subscribed to every job's events.
type daemon struct {
	dir    string
	eng    *jobs.Engine
	srv    *rpc.Server
	ln     net.Listener
	served chan error
	c      *rpc.Client

	// collected is closed when the event collector has returned.
	collected chan struct{}
	mu        sync.Mutex
	events    map[string]*jobEvents
}

// jobEvents is what the event collector saw of one job.
type jobEvents struct {
	started, done time.Time // arrival of the started and terminal events
	final         string    // the terminal event: done, failed or cancelled
	ended         chan struct{}
}

// startDaemon brings a daemon up in dir with one runner and one worker
// and returns once a daemon.status round trip has succeeded. The socket
// path is relative so it stays short wherever the checkout lives.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "d.sock")
	_ = os.Remove(sock) // a stale socket from a killed run
	d := &daemon{dir: dir, eng: jobs.New(jobs.Options{Runners: 1, Workers: 1}), served: make(chan error, 1),
		collected: make(chan struct{}), events: make(map[string]*jobEvents)}
	d.srv = rpc.NewServer(d.eng, sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		d.eng.Close()
		return nil, err
	}
	d.ln = ln
	go func() { d.served <- d.srv.Serve(ln) }()
	if d.c, err = rpc.Dial(sock); err == nil {
		go d.collect()
		if _, err = d.c.Subscribe(""); err == nil {
			_, err = d.c.DaemonStatus()
		}
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop closes the client, the server, the listener and the engine, and
// waits for the event collector and the accept loop to return.
func (d *daemon) stop() error {
	if d.c != nil {
		d.c.Close()
		<-d.collected
	}
	d.srv.Close()
	d.ln.Close()
	err := <-d.served
	d.eng.Close()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// collect drains the client's notifications until the connection ends,
// stamping each job event on arrival. It runs beside Submit, so an
// event that arrives before the submit acknowledgement is timed when it
// arrives, not when the client gets round to it.
func (d *daemon) collect() {
	defer close(d.collected)
	for n := range d.c.Events() {
		now := time.Now()
		var ev jobs.Event
		if json.Unmarshal(n.Params, &ev) != nil || ev.JobID == "" {
			continue
		}
		d.mu.Lock()
		switch ev.Type {
		case "started":
			d.job(ev.JobID).started = now
		case "done", "failed", "cancelled":
			if j := d.job(ev.JobID); j.final == "" {
				j.done, j.final = now, ev.Type
				close(j.ended)
			}
		}
		d.mu.Unlock()
	}
}

// job returns the event record of a job, creating it; d.mu must be held.
func (d *daemon) job(id string) *jobEvents {
	j, ok := d.events[id]
	if !ok {
		j = &jobEvents{ended: make(chan struct{})}
		d.events[id] = j
	}
	return j
}

// jobTiming is one job's client-side timeline: submit sent, submit
// acknowledged, started and terminal events arrived, result requested
// and result in hand.
type jobTiming struct {
	submit, ack, started, done, fetch, end time.Time
	resultBytes                            int
}

// eventWait bounds how long the client waits for a job to end.
const eventWait = 60 * time.Second

// runJob submits one job, waits for its terminal event and fetches the
// result: a closed loop with one outstanding job.
func (d *daemon) runJob(j table1Job) (jobs.Result, jobTiming, error) {
	var t jobTiming
	t.submit = time.Now()
	snap, err := d.c.Submit(j.spec)
	t.ack = time.Now()
	if err != nil {
		return jobs.Result{}, t, fmt.Errorf("submit: %w", err)
	}
	d.mu.Lock()
	ev := d.job(snap.ID)
	d.mu.Unlock()
	timeout := time.NewTimer(eventWait)
	defer timeout.Stop()
	select {
	case <-ev.ended:
	case <-d.collected:
		return jobs.Result{}, t, fmt.Errorf("job %s: event stream closed", snap.ID)
	case <-timeout.C:
		return jobs.Result{}, t, fmt.Errorf("job %s: no terminal event within %v", snap.ID, eventWait)
	}
	d.mu.Lock()
	t.started, t.done = ev.started, ev.done
	final := ev.final
	delete(d.events, snap.ID)
	d.mu.Unlock()
	if final != "done" {
		return jobs.Result{}, t, fmt.Errorf("job %s %s", snap.ID, final)
	}
	if t.started.IsZero() {
		return jobs.Result{}, t, fmt.Errorf("job %s: done without a started event", snap.ID)
	}
	t.fetch = time.Now()
	raw, err := d.c.RawResult(snap.ID)
	t.end = time.Now()
	if err != nil {
		return jobs.Result{}, t, fmt.Errorf("result: %w", err)
	}
	t.resultBytes = len(raw)
	var res jobs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return jobs.Result{}, t, fmt.Errorf("result: %w", err)
	}
	return res, t, nil
}

// passResult is one pass over the job list.
type passResult struct {
	rows    []rowStats // per job index; zero for failed jobs
	timings []jobTiming
}

// pass runs every job once through the daemon, checking each row, and
// records per-job spans when the tracer is on.
func (d *daemon) pass(e *env, list []table1Job, run string, parent int) passResult {
	out := passResult{rows: make([]rowStats, len(list)), timings: make([]jobTiming, len(list))}
	for i, j := range list {
		e.cal.tick()
		res, t, err := d.runJob(j)
		if err == nil {
			out.rows[i], err = checkCell(res)
		}
		out.timings[i] = t
		e.tally.op(err, "job %d (%s n=%d k=%d %s)", i, j.spec.Algorithm, j.spec.N, j.spec.K, j.spec.Scheduler)
		if err == nil {
			job := e.tr.record(run, "bench.job", parent, t.submit, t.end)
			e.tr.record(run, "rpc.Submit", job, t.submit, t.ack)
			e.tr.record(run, "jobs.queue", job, t.submit, t.started)
			e.tr.record(run, "jobs.run", job, t.started, t.done)
			e.tr.record(run, "rpc.Result", job, t.fetch, t.end)
		}
	}
	return out
}

// guardRows is the exact-count guard for daemon rows: every pass must
// report the statistics of the first.
func guardRows(e *env, passes []passResult) {
	for _, p := range passes[1:] {
		for i, r := range p.rows {
			if r != (rowStats{}) && passes[0].rows[i] != (rowStats{}) && r != passes[0].rows[i] {
				e.tally.check(fmt.Errorf("%v, first pass had %v", r, passes[0].rows[i]), "job %d exact-count guard", i)
			}
		}
	}
}

// runLocal runs every job in process through agentring.Run, outside any
// timed phase, and checks each against the daemon's row. It returns the
// in-process statistics and per-scheduler time and step totals.
func runLocal(e *env, list []table1Job, daemonRows []rowStats, run string, parent int) (localRun, error) {
	var out localRun
	out.rows = make([]rowStats, len(list))
	for i, j := range list {
		cfg, err := j.cell.Config()
		if err != nil {
			return out, fmt.Errorf("job %d: %w", i, err)
		}
		id := e.tr.begin(run, "agentring.Run", parent)
		t0 := time.Now()
		rep, err := agentring.Run(j.cell.Algorithm, cfg)
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return out, fmt.Errorf("in-process run of job %d: %w", i, err)
		}
		r := rowStats{Moves: rep.TotalMoves, Rounds: rep.Rounds, PeakWords: rep.PeakWords, Steps: rep.Steps}
		out.rows[i] = r
		out.runMS = append(out.runMS, float64(d.Nanoseconds())/1e6)
		if cfg.Scheduler == agentring.Synchronous {
			out.syncNS += d.Nanoseconds()
			out.syncSteps += int64(rep.Steps)
		} else {
			out.rrNS += d.Nanoseconds()
			out.rrSteps += int64(rep.Steps)
		}
		if daemonRows != nil && daemonRows[i] != (rowStats{}) && daemonRows[i] != r {
			e.tally.check(fmt.Errorf("daemon %v, in-process %v", daemonRows[i], r), "job %d", i)
		}
	}
	return out, nil
}

// localRun is the in-process counterpart of one pass.
type localRun struct {
	rows               []rowStats
	runMS              []float64
	syncNS, rrNS       int64
	syncSteps, rrSteps int64
}

// simLayers derives the run-path per-layer metrics from an in-process
// pass: ns per step by scheduler and the exact simulated totals.
func (l localRun) simLayers() map[string]float64 {
	var t rowStats
	for _, r := range l.rows {
		t.Moves += r.Moves
		t.Rounds += r.Rounds
		t.PeakWords += r.PeakWords
		t.Steps += r.Steps
	}
	return map[string]float64{
		"sim.run_ns_per_step.synchronous": float64(l.syncNS) / float64(l.syncSteps),
		"sim.run_ns_per_step.roundrobin":  float64(l.rrNS) / float64(l.rrSteps),
		"sim.steps":                       float64(t.Steps),
		"core.moves":                      float64(t.Moves),
		"core.rounds":                     float64(t.Rounds),
		"core.peak_words":                 float64(t.PeakWords),
		"agentring.run_ms":                mean(l.runMS),
	}
}

// jobLayers derives the jobs.* and rpc.* per-layer metrics from passes.
// jobs.run_ms is a mean, as is agentring.run_ms, so the two compare the
// same jobs; a median of this mix of job sizes falls between classes
// and jumps between passes.
func jobLayers(passes []passResult) map[string]float64 {
	var wait, run, submit, result, bytes []float64
	for _, p := range passes {
		for _, t := range p.timings {
			if t.end.IsZero() || t.started.IsZero() {
				continue
			}
			wait = append(wait, ms(t.started.Sub(t.submit)))
			run = append(run, ms(t.done.Sub(t.started)))
			submit = append(submit, ms(t.ack.Sub(t.submit))*1e3)
			result = append(result, ms(t.end.Sub(t.fetch))*1e3)
			bytes = append(bytes, float64(t.resultBytes))
		}
	}
	return map[string]float64{
		"jobs.queue_wait_ms": median(wait),
		"jobs.run_ms":        mean(run),
		"rpc.submit_us":      median(submit),
		"rpc.result_us":      median(result),
		"rpc.result_bytes":   median(bytes),
	}
}

// roundtrips times n daemon.status calls and returns the median in µs.
func (d *daemon) roundtrips(e *env, n int, run string, parent int) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := e.tr.begin(run, "rpc.DaemonStatus", parent)
		t0 := time.Now()
		_, err := d.c.DaemonStatus()
		us = append(us, ms(time.Since(t0))*1e3)
		e.tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("daemon.status: %w", err)
		}
	}
	return median(us), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
