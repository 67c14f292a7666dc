package sim

import (
	"errors"
	"fmt"
	"reflect"

	"agentring/internal/memmeter"
	"agentring/internal/ring"
)

// Exported engine errors, matchable with errors.Is.
var (
	// ErrStepLimit means the run did not quiesce within Options.MaxSteps
	// atomic actions — a livelock or an undersized budget.
	ErrStepLimit = errors.New("sim: step limit exceeded before quiescence")
	// ErrBadSetup covers invalid engine construction arguments.
	ErrBadSetup = errors.New("sim: invalid setup")
)

// Options configures an Engine.
type Options struct {
	// Scheduler decides the interleaving. Defaults to round-robin.
	Scheduler Scheduler
	// MaxSteps bounds the number of atomic actions. Zero selects a
	// generous default proportional to n*k.
	MaxSteps int
	// Trace, if non-nil, records execution events into its bounded
	// in-memory buffer (one TraceSink implementation kept as a named
	// field for convenience and compatibility).
	Trace *Trace
	// Sink, if non-nil, receives every execution event as it happens —
	// the streaming counterpart of Trace, for live subscribers that must
	// not buffer a whole run. When both Trace and Sink are set the
	// engine tees events to both, Trace first, so Trace's contents are
	// unchanged by the presence of a streaming sink.
	Sink TraceSink
	// Observer, if non-nil, receives a full configuration snapshot
	// before the first atomic action and after every one. Snapshots are
	// O(n + k) to build, so observers are meant for tests and tools, not
	// hot paths.
	Observer Observer
	// Faults schedules link-state mutations applied between atomic
	// actions, making the edge set dynamic (see FaultSchedule for the
	// frozen-FIFO semantics of failed links). Events are applied in
	// Step order; an empty schedule leaves the engine on the static
	// topology with zero overhead in the stepping loop.
	Faults FaultSchedule
	// Adversary, if non-nil, makes link failures and repairs *choices*
	// offered at every decision point instead of a fixed timeline: see
	// AdversaryBudget for the budget semantics and the deterministic
	// choice order. Mutually exclusive with Faults.
	Adversary *AdversaryBudget
	// TrackState, if set, maintains a per-agent canonical hash of the
	// agent's complete observation history (every value its program read
	// through the API) and pending mailbox contents, surfaced as
	// Configuration.AgentHashes. Programs are deterministic functions of
	// their observations, so equal hashes identify equal internal
	// program states; the schedule-space explorer relies on this to
	// recognize converged branches. Off by default: hashing message
	// payloads costs a formatting pass per delivery.
	TrackState bool
}

// Engine drives one execution of a set of agent programs on a topology
// (a unidirectional ring by default; see Topology). An Engine is
// single-use: construct, Run once, inspect the Result.
//
// The engine is data-oriented: all per-agent state lives in flat
// parallel arrays (struct-of-arrays — see the "agent tables" block
// below), the enabled sets are hierarchical word bitsets (bitset.go),
// and a step touches a handful of contiguous words instead of chasing
// per-agent heap objects. The engine never rescans the topology: the
// whole edge set is flattened into dense rank-indexed arrays at
// construction (edgeTable), so the steady-state loop performs no
// Topology interface calls and allocates nothing.
//
// Under the default round-robin scheduler the engine additionally skips
// choice-list materialization entirely: the ready bitset holds exactly
// the enabled agents once every agent has started, and the round-robin
// pick is a cyclic next-set-bit query (see Run). Other schedulers get
// the same deterministic choice list as before, rebuilt per step from
// the bitsets into a reused buffer.
//
// The edge set can be made dynamic: Options.Faults (or SetEdgeState)
// fails and repairs individual directed edges between atomic actions,
// with the frozen-FIFO semantics documented on FaultSchedule. The
// static tables never rebuild — a failed edge is a bit in a lazily
// allocated rank bitset, and freezing/repairing an edge just removes or
// re-adds its queue head in the ready set.
type Engine struct {
	et       *edgeTable
	tokens   []int // per-node indelible token counts (the T component)
	sched    Scheduler
	maxStep  int
	sink     TraceSink
	observer Observer

	// Agent tables: parallel arrays indexed by agent id. The hot loop
	// reads node/status/qrank/qnext and the queue links; everything an
	// activation rarely touches (meter, frame, error) sits in separate
	// arrays so it stays out of the touched cache lines.
	node     []ring.NodeID // current (or last) node
	status   []Status
	inRank   []int32 // arrival rank of the last traversed edge, -1 before the first move
	qrank    []int32 // rank of the queue the agent occupies, -1 when staying
	qnext    []int32 // successor in the agent's FIFO queue, -1 at the tail
	stayNext []int32 // intrusive per-node staying list links
	stayPrev []int32
	home     []ring.NodeID
	moves    []int32
	mailbox  [][]Message
	obsHash  []uint64 // folded observation history (Options.TrackState)
	mailHash []uint64 // folded pending mailbox payloads
	meter    []memmeter.Meter
	frame    []Frame    // each agent's Program.Frame, stepped once per activation
	apis     []apiState // the per-agent API arena (one backing array)
	agentErr []error
	// coros are the ProgramFunc agents' frames, each holding a
	// coroutine that Run retires when it ends. Empty for every other
	// program, so frames pay nothing for it.
	coros []*coroFrame

	// The per-edge link FIFOs are intrusive singly-linked lists over
	// agent ids, indexed by the edge's arrival rank: qhead/qtail per
	// rank, qnext per agent. An agent occupies at most one queue at a
	// time, so a single next-pointer array serves every queue and
	// push/pop never allocate.
	qhead []int32 // per edge rank: first agent in transit along it, -1 if none
	qtail []int32 // per edge rank: last agent in transit along it, -1 if none

	// stayHead heads the intrusive doubly-linked list of waiting/halted
	// agents per node (stayNext/stayPrev above), replacing the per-node
	// []int slices: co-location queries stay O(co-located agents) and
	// the per-node footprint drops to one int32.
	stayHead []int32

	occupied *bitset // edge ranks with non-empty queues
	wakeable *bitset // waiting agents with non-empty mailboxes
	// ready holds the agent ids the round-robin fast path picks from:
	// the heads of occupied *up* edges plus the wakeable agents. Once
	// initNodes drains this is exactly the enabled-agent set (each
	// enabled choice names a distinct agent: arrival heads are
	// in-transit, wakeable agents are waiting); while init suppression
	// is active it is a superset, so the fast path stays off until then.
	ready   *bitset
	choices []Choice

	// The paper's initial configuration puts each agent in the incoming
	// buffer of its home node, guaranteeing it takes the first atomic
	// action there. On an in-degree-1 topology the node's single link
	// FIFO provides that for free (visitors queue behind the resident),
	// but with several incoming links a visitor on another edge could
	// slip past, so the home buffer is modeled explicitly: initPending
	// holds each node's not-yet-activated resident, and arrivals into a
	// node are suppressed until its resident has acted. initNodes keeps
	// the pending home nodes; once it drains (after at most k steps)
	// enabledChoices takes the init-free fast path.
	initPending []int32 // per node: resident agent awaiting first activation, -1 if none
	initNodes   *bitset // nodes with a pending resident

	// Dynamic-edge state. The edge table itself is immutable; a failed
	// edge is marked in down (a rank bitset allocated lazily at the
	// first effective mutation, so static runs never touch it) and its
	// queue freezes: the head's arrival leaves the enabled set while
	// pushes still append. epoch counts effective mutations; faults
	// holds the step-ordered schedule with faultIdx its cursor.
	down      *bitset
	downCount int
	epoch     int
	faults    FaultSchedule
	faultIdx  int

	// Online-adversary state (Options.Adversary; nil otherwise). The
	// budget itself is immutable; the mutable part — how many fails have
	// been spent and when each down link failed — is configuration
	// state: it is checkpointed, restored, and folded into StateKey
	// (fail count plus per-link *relative* outage ages, so states
	// reached at different depths still converge).
	adv       *AdversaryBudget
	advFails  int
	advDownAt []int32 // per rank: step count just after the fail; -1 when up
	advSrc    []int32 // per rank: tail node of the directed edge
	advPort   []int32 // per rank: out-port at the tail node

	steps     int
	sent      int
	delivered int
	track     bool // Options.TrackState
	quiesced  bool // Run ended with no enabled action (vs stopped/error)

	keyScratch []int32 // StateKey's staying-agent sort buffer, reused across calls
}

// NewEngine builds an engine for k agents with the given distinct home
// nodes and per-agent programs on the given topology (pass a *ring.Ring
// for the paper's unidirectional ring). Tokens are engine state,
// released by the programs themselves.
func NewEngine(t Topology, homes []ring.NodeID, programs []Program, opts Options) (*Engine, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadSetup)
	}
	// Guard typed-nil pointers (a nil *ring.Ring in the interface).
	if rv := reflect.ValueOf(t); rv.Kind() == reflect.Pointer && rv.IsNil() {
		return nil, fmt.Errorf("%w: nil topology", ErrBadSetup)
	}
	et, err := buildEdgeTable(t)
	if err != nil {
		return nil, err
	}
	k, n := len(homes), et.n
	if k == 0 {
		return nil, fmt.Errorf("%w: no agents", ErrBadSetup)
	}
	if k != len(programs) {
		return nil, fmt.Errorf("%w: %d homes but %d programs", ErrBadSetup, k, len(programs))
	}
	if k > n {
		return nil, fmt.Errorf("%w: %d agents exceed %d nodes", ErrBadSetup, k, n)
	}
	seen := make(map[ring.NodeID]bool, k)
	for i, h := range homes {
		if h < 0 || int(h) >= n {
			return nil, fmt.Errorf("%w: home %d out of range", ErrBadSetup, h)
		}
		if seen[h] {
			return nil, fmt.Errorf("%w: duplicate home node %d", ErrBadSetup, h)
		}
		if programs[i] == nil {
			return nil, fmt.Errorf("%w: nil program for agent %d", ErrBadSetup, i)
		}
		seen[h] = true
	}
	sched := opts.Scheduler
	if sched == nil {
		sched = NewRoundRobin()
	}
	maxStep := opts.MaxSteps
	if maxStep == 0 {
		// The costliest algorithm makes O(14 n) moves per agent plus
		// wake-ups; 1000 + 400*n*k covers everything with a wide margin.
		maxStep = 1000 + 400*n*k
	}
	m := et.edges()
	e := &Engine{
		et:       et,
		tokens:   make([]int, n),
		sched:    sched,
		maxStep:  maxStep,
		sink:     buildSink(opts),
		observer: opts.Observer,
		track:    opts.TrackState,

		node:     make([]ring.NodeID, k),
		status:   make([]Status, k),
		inRank:   make([]int32, k),
		qrank:    make([]int32, k),
		qnext:    make([]int32, k),
		stayNext: make([]int32, k),
		stayPrev: make([]int32, k),
		home:     make([]ring.NodeID, k),
		moves:    make([]int32, k),
		mailbox:  make([][]Message, k),
		meter:    make([]memmeter.Meter, k),
		frame:    make([]Frame, k),
		apis:     make([]apiState, k),
		agentErr: make([]error, k),

		qhead:    make([]int32, m),
		qtail:    make([]int32, m),
		stayHead: make([]int32, n),

		occupied: newBitset(m),
		wakeable: newBitset(k),
		ready:    newBitset(k),
		choices:  make([]Choice, 0, 2*k),

		initPending: make([]int32, n),
		initNodes:   newBitset(n),
	}
	if len(opts.Faults) > 0 {
		if err := opts.Faults.validate(et); err != nil {
			return nil, err
		}
		e.faults = opts.Faults.sorted()
	}
	if opts.Adversary != nil {
		if err := e.initAdversary(*opts.Adversary); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		e.qhead[i], e.qtail[i] = -1, -1
	}
	for v := 0; v < n; v++ {
		e.initPending[v] = -1
		e.stayHead[v] = -1
	}
	if e.track {
		e.obsHash = make([]uint64, k)
		e.mailHash = make([]uint64, k)
	}
	for i := range homes {
		e.home[i] = homes[i]
		e.node[i] = homes[i]
		e.status[i] = StatusInTransit // in the home node's incoming buffer
		e.inRank[i] = -1
		e.qrank[i] = -1
		fr := programs[i].Frame()
		if fr == nil {
			return nil, fmt.Errorf("%w: nil frame for agent %d", ErrBadSetup, i)
		}
		e.frame[i] = fr
		if c, ok := fr.(*coroFrame); ok {
			e.coros = append(e.coros, c)
		}
		e.apis[i] = apiState{e: e, id: i}
		// The initial configuration stores each agent in the incoming
		// buffer of its home node, which blocks link arrivals into that
		// node until the resident has taken its first atomic action —
		// the paper's "each agent acts first at its home" assumption,
		// which on the ring coincides with sitting at the head of the
		// node's single link FIFO.
		e.initPending[homes[i]] = int32(i)
		e.initNodes.add(int(homes[i]))
	}
	return e, nil
}

// Run executes until quiescence (no enabled atomic action) and returns
// the outcome. It is an error for any agent program to fail or for the
// step limit to be reached.
//
// Under a round-robin scheduler, once every agent has taken its first
// home activation, Run switches to a fast path that never materializes
// the choice list: the ready bitset is exactly the enabled-agent set,
// and the round-robin pick — the minimum cyclic distance from the last
// scheduled agent — is the cyclic next set bit after it. The fast path
// falls back to the generic decision loop at every boundary condition
// (pending faults, step limit, drained ready set), which alone decides
// quiescence; both paths share the scheduler's cursor, so the
// interleaving is bit-identical to picking from the materialized list.
func (e *Engine) Run() (Result, error) {
	var runErr error
	if e.observer != nil {
		e.observer(e.snapshot())
	}
	rr, fast := e.sched.(*RoundRobin)
	// Adversary engines always take the generic loop: adversary moves
	// exist only as materialized choices.
	fast = fast && e.adv == nil
	for {
		e.applyDueFaults()
		if fast && e.observer == nil && e.initNodes.count == 0 && e.ready.count > 0 && e.steps < e.maxStep {
			if err := e.runFast(rr); err != nil {
				runErr = err
				break
			}
			// Re-enter the generic loop for whatever stopped the fast
			// path: a due fault, the step limit, or quiescence.
			continue
		}
		choices := e.enabledChoices()
		// A blocked configuration with mutations still pending is not
		// quiescent: time passes, the next scheduled event fires on its
		// own (repairs need no agent's help), and frozen arrivals may
		// re-enable.
		for len(choices) == 0 && e.faultIdx < len(e.faults) {
			e.applyNextFaultBatch()
			choices = e.enabledChoices()
		}
		if e.adv != nil {
			choices = e.adversaryChoices(choices)
		}
		if len(choices) == 0 {
			e.quiesced = true
			break
		}
		if e.steps >= e.maxStep {
			runErr = fmt.Errorf("%w (limit %d)", ErrStepLimit, e.maxStep)
			break
		}
		pick := e.sched.Pick(e.steps, choices)
		if pick == PickStop {
			break
		}
		if pick < 0 || pick >= len(choices) {
			runErr = fmt.Errorf("%w: scheduler picked %d of %d choices", ErrBadSetup, pick, len(choices))
			break
		}
		if err := e.activate(choices[pick]); err != nil {
			runErr = err
			break
		}
		e.steps++
		if e.observer != nil {
			e.observer(e.snapshot())
		}
	}
	for _, c := range e.coros {
		c.stop()
	}
	res := e.result()
	if runErr == nil {
		for id, err := range e.agentErr {
			if err != nil {
				runErr = fmt.Errorf("agent %d: %w", id, err)
				break
			}
		}
	}
	return res, runErr
}

// runFast is the round-robin steady-state loop: pick the cyclic next
// ready agent, activate it, repeat — no choice list, no interface call
// into the scheduler. It returns (for Run's generic loop to arbitrate)
// before any decision point where a fault is due, the step limit is
// reached, or no agent is enabled.
func (e *Engine) runFast(rr *RoundRobin) error {
	for e.ready.count > 0 && e.steps < e.maxStep {
		if e.faultIdx < len(e.faults) && e.faults[e.faultIdx].Step <= e.steps {
			return nil
		}
		id := e.ready.nextCyclic(rr.last + 1)
		rr.last = id
		var err error
		if e.wakeable.has(id) {
			err = e.activateWake(id)
		} else {
			err = e.activateArrival(id, int(e.qrank[id]))
		}
		if err != nil {
			return err
		}
		e.steps++
	}
	return nil
}

// enabledChoices rebuilds the enabled-action list from the incremental
// bitsets in the same deterministic order the schedulers are specified
// against: arrivals (and initial home activations, which displace the
// arrivals into their node) by destination node ascending — with ties
// among a node's several in-edges broken by edge id — then wakes by
// agent index ascending. The backing array is reused across steps, and
// the init merge disappears entirely once every agent has started.
//
// Failed edges are skipped: their heads stay frozen in the queue and
// re-enter the enabled set, in the same rank position, when the edge is
// repaired.
func (e *Engine) enabledChoices() []Choice {
	out := e.choices[:0]
	if e.initNodes.count == 0 {
		if e.downCount == 0 {
			for r := e.occupied.next(0); r != -1; r = e.occupied.next(r + 1) {
				out = append(out, Choice{
					Kind:  ChoiceArrival,
					Agent: int(e.qhead[r]),
					Node:  ring.NodeID(e.et.rankDest[r]),
					Edge:  r,
				})
			}
		} else {
			for r := e.occupied.next(0); r != -1; r = e.occupied.next(r + 1) {
				if e.down.has(r) {
					continue
				}
				out = append(out, Choice{
					Kind:  ChoiceArrival,
					Agent: int(e.qhead[r]),
					Node:  ring.NodeID(e.et.rankDest[r]),
					Edge:  r,
				})
			}
		}
	} else {
		r := e.occupied.next(0)
		for v := e.initNodes.next(0); v != -1; v = e.initNodes.next(v + 1) {
			for r != -1 && int(e.et.rankDest[r]) < v {
				if !e.edgeDown(r) {
					out = append(out, Choice{
						Kind:  ChoiceArrival,
						Agent: int(e.qhead[r]),
						Node:  ring.NodeID(e.et.rankDest[r]),
						Edge:  r,
					})
				}
				r = e.occupied.next(r + 1)
			}
			// The resident's first activation is the node's only enabled
			// action: link arrivals into v stay suppressed behind it.
			out = append(out, Choice{Kind: ChoiceArrival, Agent: int(e.initPending[v]), Node: ring.NodeID(v), Edge: -1})
			for r != -1 && int(e.et.rankDest[r]) == v {
				r = e.occupied.next(r + 1)
			}
		}
		for ; r != -1; r = e.occupied.next(r + 1) {
			if e.edgeDown(r) {
				continue
			}
			out = append(out, Choice{
				Kind:  ChoiceArrival,
				Agent: int(e.qhead[r]),
				Node:  ring.NodeID(e.et.rankDest[r]),
				Edge:  r,
			})
		}
	}
	for id := e.wakeable.next(0); id != -1; id = e.wakeable.next(id + 1) {
		out = append(out, Choice{Kind: ChoiceWake, Agent: id, Node: e.node[id], Edge: -1})
	}
	e.choices = out
	return out
}

// enqueue appends agent id to the FIFO of the rank-r edge, registering
// the edge as occupied — and its new head as ready, when the edge is up
// — if its queue was empty.
func (e *Engine) enqueue(r, id int) {
	if e.qhead[r] == -1 {
		e.qhead[r] = int32(id)
		e.occupied.add(r)
		if !e.edgeDown(r) {
			e.ready.add(id)
		}
	} else {
		e.qnext[e.qtail[r]] = int32(id)
	}
	e.qtail[r] = int32(id)
	e.qnext[id] = -1
	e.qrank[id] = int32(r)
}

// dequeue pops the head of the FIFO of the rank-r edge, deregistering
// the edge when its queue drains and promoting the next agent into the
// ready set otherwise.
func (e *Engine) dequeue(r int) int {
	id := e.qhead[r]
	e.qhead[r] = e.qnext[id]
	e.ready.remove(int(id))
	e.qrank[id] = -1
	if e.qhead[r] == -1 {
		e.qtail[r] = -1
		e.occupied.remove(r)
	} else if !e.edgeDown(r) {
		e.ready.add(int(e.qhead[r]))
	}
	return int(id)
}

// queueSnapshot copies the FIFO of the rank-r edge, head first.
func (e *Engine) queueSnapshot(r int) []int {
	var out []int
	for id := e.qhead[r]; id != -1; id = e.qnext[id] {
		out = append(out, int(id))
	}
	return out
}

// addStaying links agent id into its node's staying list. Insertion
// order (here: LIFO) is invisible: every consumer — co-location counts,
// broadcast fan-out, snapshot building — is order-independent.
func (e *Engine) addStaying(id int) {
	v := e.node[id]
	h := e.stayHead[v]
	e.stayNext[id] = h
	e.stayPrev[id] = -1
	if h != -1 {
		e.stayPrev[h] = int32(id)
	}
	e.stayHead[v] = int32(id)
}

func (e *Engine) removeStaying(id int) {
	if prev := e.stayPrev[id]; prev == -1 {
		e.stayHead[e.node[id]] = e.stayNext[id]
	} else {
		e.stayNext[prev] = e.stayNext[id]
	}
	if next := e.stayNext[id]; next != -1 {
		e.stayPrev[next] = e.stayPrev[id]
	}
}

// activate performs one atomic action for the chosen agent (the generic
// decision loop's entry; the fast path calls the kind-specific forms
// directly).
func (e *Engine) activate(c Choice) error {
	switch c.Kind {
	case ChoiceArrival:
		if c.Edge == -1 {
			// First activation out of the home buffer: a residency, not
			// a link traversal (ArrivalPort stays -1), which unblocks
			// link arrivals into the node.
			if int(c.Node) >= len(e.initPending) || e.initPending[c.Node] != int32(c.Agent) {
				return fmt.Errorf("%w: init choice desynchronized", ErrBadSetup)
			}
			e.initPending[c.Node] = -1
			e.initNodes.remove(int(c.Node))
			e.traceEvent(c.Agent, "arrive", "")
			return e.finishAction(c.Agent, false)
		}
		if c.Edge < 0 || c.Edge >= e.et.edges() || e.qhead[c.Edge] != int32(c.Agent) {
			return fmt.Errorf("%w: arrival choice desynchronized", ErrBadSetup)
		}
		return e.activateArrival(c.Agent, c.Edge)
	case ChoiceWake:
		return e.activateWake(c.Agent)
	case ChoiceFail, ChoiceRepair:
		return e.activateAdversary(c)
	default:
		return fmt.Errorf("%w: unknown choice kind %d", ErrBadSetup, c.Kind)
	}
}

// activateArrival pops agent id off the rank-r edge it heads and runs
// one atomic action at the destination.
func (e *Engine) activateArrival(id, r int) error {
	e.dequeue(r)
	e.node[id] = ring.NodeID(e.et.rankDest[r])
	e.inRank[id] = int32(r)
	e.traceEvent(id, "arrive", "")
	return e.finishAction(id, false)
}

// activateWake delivers a staying agent's mailbox and runs one atomic
// action in place.
func (e *Engine) activateWake(id int) error {
	e.wakeable.remove(id)
	e.ready.remove(id)
	e.traceEvent(id, "wake", "")
	return e.finishAction(id, true)
}

// finishAction is steps 2-4 of the atomic action: deliver all queued
// messages, step the agent's frame, and apply the Action it returns.
func (e *Engine) finishAction(id int, wasStaying bool) error {
	// Step 2: deliver all queued messages. Whatever the program does not
	// read is consumed anyway. (Arrivals always find an empty mailbox —
	// only staying agents receive broadcasts — so this is free on the
	// steady-state path.)
	if mb := e.mailbox[id]; mb != nil {
		e.delivered += len(mb)
		e.apis[id].inbox = mb
		e.mailbox[id] = nil
		if e.track {
			e.mailHash[id] = 0
		}
	}

	act := e.stepFrame(id)
	// Unconsumed messages vanish at the end of the atomic action.
	e.apis[id].inbox = nil
	switch act.Kind {
	case ActionMove:
		// stepFrame validated the port, so the lookup cannot go out of
		// bounds.
		r := int(e.et.rank[int(e.et.start[e.node[id]])+act.Port])
		e.moves[id]++
		e.status[id] = StatusInTransit
		if wasStaying {
			e.removeStaying(id)
		}
		e.enqueue(r, id)
		if e.sink != nil {
			detail := ""
			if act.Port != 0 {
				detail = fmt.Sprintf("via port %d", act.Port)
			}
			e.traceEvent(id, "move", detail)
		}
	case ActionAwait:
		e.status[id] = StatusWaiting
		if !wasStaying {
			e.addStaying(id)
		}
		e.traceEvent(id, "await", "")
	default: // ActionDone
		e.status[id] = StatusHalted
		e.agentErr[id] = act.Err
		if !wasStaying {
			e.addStaying(id)
		}
		e.traceEvent(id, "halt", "")
		if act.Err != nil {
			return fmt.Errorf("agent %d failed: %w", id, act.Err)
		}
	}
	return nil
}

// stepFrame advances the agent by one atomic action and folds the
// opMove/opAwait observation opcodes for the returned Action (after
// every in-action observation, before the action ends). A panic, an
// out-of-range move port, or an unknown action kind becomes ActionDone
// with a program error.
func (e *Engine) stepFrame(id int) (act Action) {
	defer func() {
		if r := recover(); r != nil {
			act = Action{Kind: ActionDone, Err: fmt.Errorf("program panic: %v", r)}
		}
	}()
	act = e.frame[id].Step(&e.apis[id])
	switch act.Kind {
	case ActionMove:
		if deg := e.et.outDegree(e.node[id]); act.Port < 0 || act.Port >= deg {
			return Action{Kind: ActionDone, Err: fmt.Errorf("program panic: move via port %d at node with out-degree %d", act.Port, deg)}
		}
		if e.track {
			e.obsHash[id] = fold(fold(e.obsHash[id], opMove), uint64(act.Port))
		}
	case ActionAwait:
		if e.track {
			e.obsHash[id] = fold(e.obsHash[id], opAwait)
		}
	case ActionDone:
	default:
		return Action{Kind: ActionDone, Err: fmt.Errorf("frame returned unknown action kind %d", act.Kind)}
	}
	return act
}

// buildSink resolves Options' trace destinations into the engine's
// single sink: nil when tracing is off, the buffer or stream alone when
// only one is set, a tee (buffer first) when both are.
func buildSink(opts Options) TraceSink {
	switch {
	case opts.Trace != nil && opts.Sink != nil:
		return TeeSink{opts.Trace, opts.Sink}
	case opts.Trace != nil:
		return opts.Trace
	case opts.Sink != nil:
		return opts.Sink
	default:
		return nil
	}
}

func (e *Engine) traceEvent(id int, kind, detail string) {
	if e.sink != nil {
		e.sink.Record(Event{Step: e.steps, Agent: id, Node: e.node[id], Kind: kind, Detail: detail})
	}
}

// apiState implements API for one agent. The engine allocates all k of
// them in one backing array (the API arena): frame agents carry no
// other per-activation state, so the steady-state loop creates nothing.
type apiState struct {
	e     *Engine
	id    int
	inbox []Message
}

var _ API = (*apiState)(nil)

// errBlockingCall is the program error of a frame calling one of the
// blocking API methods: there is no suspended caller to resume.
var errBlockingCall = errors.New("frame agent called a blocking API method")

// Move implements API; frames end an action by returning ActionMove
// instead.
func (p *apiState) Move() { panic(errBlockingCall) }

// MoveVia implements API; frames end an action by returning ActionMove
// instead.
func (p *apiState) MoveVia(int) { panic(errBlockingCall) }

// OutDegree implements API.
func (p *apiState) OutDegree() int {
	deg := p.e.et.outDegree(p.e.node[p.id])
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opOutDegree), uint64(deg))
	}
	return deg
}

// ArrivalPort implements API.
func (p *apiState) ArrivalPort() int {
	port := -1
	if r := p.e.inRank[p.id]; r >= 0 {
		port = int(p.e.et.rankRev[r])
	}
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opArrivalPort), uint64(port+1))
	}
	return port
}

// ReleaseToken implements API.
func (p *apiState) ReleaseToken() {
	if p.e.track {
		p.e.obsHash[p.id] = fold(p.e.obsHash[p.id], opRelease)
	}
	p.e.tokens[p.e.node[p.id]]++
	p.e.traceEvent(p.id, "token", "")
}

// TokensHere implements API.
func (p *apiState) TokensHere() int {
	t := p.e.tokens[p.e.node[p.id]]
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opTokens), uint64(t))
	}
	return t
}

// AgentsHere implements API.
func (p *apiState) AgentsHere() int {
	count := 0
	for id := p.e.stayHead[p.e.node[p.id]]; id != -1; id = p.e.stayNext[id] {
		if int(id) != p.id {
			count++
		}
	}
	if p.e.track {
		p.e.obsHash[p.id] = fold(fold(p.e.obsHash[p.id], opAgents), uint64(count))
	}
	return count
}

// Broadcast implements API.
func (p *apiState) Broadcast(msg Message) {
	e := p.e
	e.sent++
	var payload uint64
	if e.track {
		payload = hashPayload(msg)
		e.obsHash[p.id] = fold(fold(e.obsHash[p.id], opBroadcast), payload)
	}
	for id := e.stayHead[e.node[p.id]]; id != -1; id = e.stayNext[id] {
		if int(id) == p.id {
			continue
		}
		// Halted agents never change state again; messages to them are
		// sent but ignored (the model permits sending, the recipient just
		// never reacts).
		if e.status[id] == StatusWaiting {
			if len(e.mailbox[id]) == 0 {
				e.wakeable.add(int(id))
				e.ready.add(int(id))
			}
			e.mailbox[id] = append(e.mailbox[id], msg)
			if e.track {
				e.mailHash[id] = fold(e.mailHash[id], payload)
			}
		}
	}
	e.traceEvent(p.id, "broadcast", "")
}

// Messages implements API.
func (p *apiState) Messages() []Message {
	out := p.inbox
	p.inbox = nil
	if p.e.track {
		h := fold(fold(p.e.obsHash[p.id], opMessages), uint64(len(out)))
		for _, m := range out {
			h = fold(h, hashPayload(m))
		}
		p.e.obsHash[p.id] = h
	}
	return out
}

// AwaitMessages implements API; frames end an action by returning
// ActionAwait instead.
func (p *apiState) AwaitMessages() []Message { panic(errBlockingCall) }

// Meter implements API.
func (p *apiState) Meter() *memmeter.Meter { return &p.e.meter[p.id] }
