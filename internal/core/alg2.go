package core

import (
	"fmt"

	"agentring/internal/sim"
)

// activeID is the (distance, follower-count) identifier an active agent
// derives in each selection sub-phase (Fig 6): d is the distance from
// its home node to the next active node, fNum the number of follower
// nodes in between. IDs compare lexicographically.
type activeID struct {
	d    int
	fNum int
}

func (a activeID) less(b activeID) bool {
	return a.d < b.d || (a.d == b.d && a.fNum < b.fNum)
}

func (a activeID) equal(b activeID) bool { return a == b }

// deployMsg is the message a leader broadcasts to each follower at the
// start of the deployment phase (Algorithm 3): how many tokens the
// follower must observe to reach the nearest base node, plus the global
// quantities it needs to walk the target schedule. Messages may be of
// any size in the model; this one is O(log n) bits.
type deployMsg struct {
	TBase int // tokens to observe before reaching the base node
	N     int // ring size, learned by leaders in the first sub-phase
	K     int // number of agents
	B     int // number of base nodes
}

// SelectionStats records how an agent left Algorithm 2's selection
// phase; used to validate the ⌈log₂ k⌉ sub-phase bound empirically.
type SelectionStats struct {
	// SubPhases is the number of completed selection sub-phases before
	// the decision.
	SubPhases int
	// Leader reports whether the agent's home became a base node.
	Leader bool
}

// alg2 is the O(log n)-memory algorithm of Section 3.2 (Algorithms 2
// and 3): cooperative base-node selection by repeated halving of the
// active-agent set, then leader/follower deployment.
type alg2 struct {
	k int
	// onDecide, when set, is invoked once as the agent leaves the
	// selection phase, during that atomic action (the engine serializes
	// activations, so plain shared state is safe for collectors).
	onDecide func(SelectionStats)
}

var _ sim.Program = (*alg2)(nil)

// NewAlg2 returns an Algorithm 2+3 program for agents that know k.
func NewAlg2(k int) (sim.Program, error) {
	return NewAlg2Instrumented(k, nil)
}

// NewAlg2Instrumented is NewAlg2 with a selection-phase observation
// hook (may be nil).
func NewAlg2Instrumented(k int, onDecide func(SelectionStats)) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadParam, k)
	}
	return &alg2{k: k, onDecide: onDecide}, nil
}

func (p *alg2) decided(subPhases int, leader bool) {
	if p.onDecide != nil {
		p.onDecide(SelectionStats{SubPhases: subPhases, Leader: leader})
	}
}

// alg2Words is Algorithms 2+3's metered working set. The whole
// algorithm keeps O(1) words: two IDs (4 words), the scratch ID (2), n,
// k, and a handful of counters. No slice of distances is ever stored —
// that is the entire point of Section 3.2.
const alg2Words = 14

// Run implements sim.Program.
func (p *alg2) Run(api sim.API) error {
	api.Meter().Set(alg2Words)

	api.ReleaseToken()

	n := 0 // learned during the first sub-phase circuit
	// Selection phase (Algorithm 2): repeat sub-phases while active.
	for subPhase := 1; ; subPhase++ {
		tokensSeen := 0
		circuit := 0
		own, wrapped := p.nextActive(api, &tokensSeen, &circuit)
		if wrapped {
			// The agent walked the whole ring without meeting another
			// active node: it is the unique active agent; its home is the
			// unique base node. (Algorithm 2 line 6.)
			if n == 0 {
				n = circuit
			}
			p.decided(subPhase, true)
			return p.leader(api, n, own.fNum)
		}
		next, wrapped := p.nextActive(api, &tokensSeen, &circuit)
		identical := own.equal(next)
		min := !next.less(own)
		for !wrapped && tokensSeen < p.k {
			var other activeID
			other, wrapped = p.nextActive(api, &tokensSeen, &circuit)
			if !own.equal(other) {
				identical = false
			}
			if other.less(own) {
				min = false
			}
		}
		if tokensSeen != p.k {
			return fmt.Errorf("%w: circuit ended after %d tokens, want %d", ErrInvariant, tokensSeen, p.k)
		}
		if n == 0 {
			n = circuit
		} else if n != circuit {
			return fmt.Errorf("%w: circuit length changed %d -> %d", ErrInvariant, n, circuit)
		}
		if identical {
			// All remaining active agents share the same ID: their homes
			// satisfy the base-node conditions; everyone becomes a leader.
			// own.d is the distance between adjacent base nodes, so the
			// number of base nodes is n / own.d.
			if own.d <= 0 || n%own.d != 0 {
				return fmt.Errorf("%w: base distance %d does not divide n=%d", ErrInvariant, own.d, n)
			}
			p.decided(subPhase, true)
			return p.leader(api, n, own.fNum)
		}
		if !min || own.equal(next) {
			// Some agent has a strictly smaller ID, or the next active
			// agent ties us: become a follower (Algorithm 2 line 16).
			p.decided(subPhase, false)
			return p.follower(api)
		}
		// Remain active: immediately begin the next sub-phase (the first
		// move happens in this same atomic action, so no visitor can ever
		// observe this agent staying at its home).
	}
}

// nextActive moves forward to the next active node — the next node
// holding a token with no agent staying — returning the distance
// travelled and the number of follower nodes (token + staying agent)
// passed. wrapped is true when the traversal has seen all k tokens,
// i.e. the stop is the agent's own home.
func (p *alg2) nextActive(api sim.API, tokensSeen, circuit *int) (activeID, bool) {
	var id activeID
	for {
		api.Move()
		id.d++
		*circuit++
		if api.TokensHere() == 0 {
			continue
		}
		*tokensSeen++
		if api.AgentsHere() == 0 {
			return id, *tokensSeen == p.k
		}
		id.fNum++
	}
}

// leader executes the leader side of the deployment phase (Algorithm 3):
// walk to the next base node, handing each follower on the way the
// count of tokens separating it from that base node, then halt there.
func (p *alg2) leader(api sim.API, n, fNum int) error {
	b := p.baseCount(fNum)
	for t := 0; t < fNum; t++ {
		p.moveToNextToken(api)
		api.Broadcast(deployMsg{TBase: fNum - t, N: n, K: p.k, B: b})
	}
	p.moveToNextToken(api) // the next base node: this leader's target
	return nil
}

// baseCount derives the number of base nodes. Between two adjacent base
// nodes there are fNum follower homes, so each of the b segments holds
// fNum+1 of the k homes.
func (p *alg2) baseCount(fNum int) int {
	return p.k / (fNum + 1)
}

// moveToNextToken advances to the next node holding a token.
func (p *alg2) moveToNextToken(api sim.API) {
	for {
		api.Move()
		if api.TokensHere() > 0 {
			return
		}
	}
}

// follower executes the follower side of the deployment phase
// (Algorithm 3): wait for the leader's message, walk to the nearest
// base node, then advance target slot by target slot until a vacant one
// is found.
func (p *alg2) follower(api sim.API) error {
	var msg deployMsg
	for {
		msgs := api.AwaitMessages()
		found := false
		for _, raw := range msgs {
			if dm, ok := raw.(deployMsg); ok {
				msg, found = dm, true
				break
			}
		}
		if found {
			break
		}
	}
	if msg.K != p.k {
		return fmt.Errorf("%w: deploy message carries k=%d, agent knows %d", ErrInvariant, msg.K, p.k)
	}
	// Walk to the nearest base node: pass TBase tokens.
	for seen := 0; seen < msg.TBase; {
		api.Move()
		if api.TokensHere() > 0 {
			seen++
		}
	}
	// Walk the target schedule: slot 0 is the base node itself (taken by
	// its leader); check slots 1..k/b-1, wrapping across segments.
	//
	// Asynchrony caveat (a reproduction finding): the paper's Theorem 4
	// bounds each follower at 2n moves, but a target slot can coincide
	// with the home of a follower that has been informed yet not
	// scheduled; a passing follower then skips the slot and may need
	// extra laps until the squatter departs. Uniform deployment is still
	// always reached; only the per-follower constant grows. We therefore
	// cap the walk at (k+4)*n and flag anything beyond as a genuine
	// invariant violation.
	perSeg := msg.K / msg.B
	slot := 0
	for walked := 0; walked <= (msg.K+4)*msg.N; {
		step, err := SlotInterval(msg.N, msg.K, msg.B, slot)
		if err != nil {
			return fmt.Errorf("slot schedule: %w", err)
		}
		for i := 0; i < step; i++ {
			api.Move()
		}
		walked += step
		slot = (slot + 1) % perSeg
		if slot == 0 {
			// Arrived at a base node: reserved for its leader, keep going.
			continue
		}
		if api.AgentsHere() == 0 {
			return nil // occupy this target and halt
		}
	}
	return fmt.Errorf("%w: follower found no vacant target within (k+4)n moves", ErrInvariant)
}

// Frame implements sim.Framer: Algorithms 2+3 as a resumable state
// machine making the same API-call sequence as Run, one atomic action
// per Step.
func (p *alg2) Frame() sim.Frame { return &alg2Frame{p: p} }

// alg2Frame phases.
const (
	alg2Init   = iota
	alg2Select // selection: walking to the next active node
	alg2Lead   // leader: token to token, informing each follower
	alg2Await  // follower: suspended until a deployMsg arrives
	alg2ToBase // follower: passing msg.TBase tokens
	alg2Slots  // follower: walking the target schedule
)

// alg2Frame is the data-oriented execution of Algorithms 2+3. Like Run
// it holds O(1) scalars; the fields of one phase are idle in the others.
type alg2Frame struct {
	p     *alg2
	phase int
	// Selection: the sub-phase, which active node of the circuit is
	// being measured (0 the own segment, 1 the next, 2 the rest), the ID
	// under construction, and the sub-phase's verdict so far.
	subPhase, stage     int
	tokensSeen, circuit int
	n                   int
	cur, own            activeID
	identical, min, tie bool // tie: own.equal(next)
	// Leader: followers informed so far out of fNum, and the base count.
	t, fNum, b int
	// Follower: the leader's message, tokens passed on the way to the
	// base node, and the slot walk (left: moves remaining to the slot).
	msg                      deployMsg
	seen, slot, walked, left int
}

func (f *alg2Frame) Step(api sim.API) sim.Action {
	switch f.phase {
	case alg2Init:
		api.Meter().Set(alg2Words)
		api.ReleaseToken()
		f.phase, f.subPhase = alg2Select, 1
		return moveAction
	case alg2Select:
		f.cur.d++
		f.circuit++
		if api.TokensHere() == 0 {
			return moveAction
		}
		f.tokensSeen++
		if api.AgentsHere() > 0 {
			f.cur.fNum++
			return moveAction
		}
		id := f.cur
		f.cur = activeID{}
		return f.active(id, f.tokensSeen == f.p.k)
	case alg2Lead:
		if api.TokensHere() == 0 {
			return moveAction
		}
		if f.t == f.fNum {
			return doneAction
		}
		api.Broadcast(deployMsg{TBase: f.fNum - f.t, N: f.n, K: f.p.k, B: f.b})
		f.t++
		return moveAction
	case alg2Await:
		for _, raw := range api.Messages() {
			if dm, ok := raw.(deployMsg); ok {
				return f.follow(dm)
			}
		}
		return awaitAction
	case alg2ToBase:
		if api.TokensHere() > 0 {
			f.seen++
		}
		return f.toBase()
	default: // alg2Slots
		if f.left > 0 {
			f.left--
			return moveAction
		}
		if f.slot != 0 && api.AgentsHere() == 0 {
			return doneAction // occupy this target
		}
		return f.nextSlot()
	}
}

// active handles the arrival at an active node: the point where Run's
// nextActive returns to the sub-phase loop.
func (f *alg2Frame) active(id activeID, wrapped bool) sim.Action {
	switch f.stage {
	case 0:
		if wrapped {
			if f.n == 0 {
				f.n = f.circuit
			}
			f.p.decided(f.subPhase, true)
			return f.lead(id.fNum)
		}
		f.own, f.stage = id, 1
		return moveAction
	case 1:
		f.identical = f.own.equal(id)
		f.tie = f.identical
		f.min = !id.less(f.own)
		f.stage = 2
	default:
		if !f.own.equal(id) {
			f.identical = false
		}
		if id.less(f.own) {
			f.min = false
		}
	}
	if !wrapped && f.tokensSeen < f.p.k {
		return moveAction
	}
	return f.endSubPhase()
}

// endSubPhase is Run's decision after a sub-phase circuit, made in the
// activation that closed it.
func (f *alg2Frame) endSubPhase() sim.Action {
	k := f.p.k
	if f.tokensSeen != k {
		return failAction(fmt.Errorf("%w: circuit ended after %d tokens, want %d", ErrInvariant, f.tokensSeen, k))
	}
	if f.n == 0 {
		f.n = f.circuit
	} else if f.n != f.circuit {
		return failAction(fmt.Errorf("%w: circuit length changed %d -> %d", ErrInvariant, f.n, f.circuit))
	}
	if f.identical {
		if f.own.d <= 0 || f.n%f.own.d != 0 {
			return failAction(fmt.Errorf("%w: base distance %d does not divide n=%d", ErrInvariant, f.own.d, f.n))
		}
		f.p.decided(f.subPhase, true)
		return f.lead(f.own.fNum)
	}
	if !f.min || f.tie {
		f.p.decided(f.subPhase, false)
		// The deciding activation is an arrival, whose inbox is always
		// empty: AwaitMessages suspends here without reading.
		f.phase = alg2Await
		return awaitAction
	}
	f.subPhase++
	f.stage, f.tokensSeen, f.circuit = 0, 0, 0
	return moveAction
}

func (f *alg2Frame) lead(fNum int) sim.Action {
	f.phase, f.t, f.fNum, f.b = alg2Lead, 0, fNum, f.p.baseCount(fNum)
	return moveAction
}

func (f *alg2Frame) follow(dm deployMsg) sim.Action {
	if dm.K != f.p.k {
		return failAction(fmt.Errorf("%w: deploy message carries k=%d, agent knows %d", ErrInvariant, dm.K, f.p.k))
	}
	f.phase, f.msg, f.seen = alg2ToBase, dm, 0
	return f.toBase()
}

func (f *alg2Frame) toBase() sim.Action {
	if f.seen < f.msg.TBase {
		return moveAction
	}
	f.phase, f.slot, f.walked = alg2Slots, 0, 0
	return f.nextSlot()
}

// nextSlot is the head of Run's slot-walk loop. A slot interval is at
// least floor(n/k) >= 1, so every iteration ends the action with a move.
func (f *alg2Frame) nextSlot() sim.Action {
	m := f.msg
	if f.walked > (m.K+4)*m.N {
		return failAction(fmt.Errorf("%w: follower found no vacant target within (k+4)n moves", ErrInvariant))
	}
	step, err := SlotInterval(m.N, m.K, m.B, f.slot)
	if err != nil {
		return failAction(fmt.Errorf("slot schedule: %w", err))
	}
	f.walked += step
	f.slot = (f.slot + 1) % (m.K / m.B)
	f.left = step - 1
	return moveAction
}

// SaveState/LoadState implement sim.FrameSaver: the frame's scalars
// (the verdict bits as 0/1). The alg2 program value is immutable
// configuration and is not serialized.
func (f *alg2Frame) SaveState(buf []int) []int {
	return append(buf, f.phase, f.subPhase, f.stage, f.tokensSeen, f.circuit, f.n,
		f.cur.d, f.cur.fNum, f.own.d, f.own.fNum, b2i(f.identical), b2i(f.min), b2i(f.tie),
		f.t, f.fNum, f.b, f.msg.TBase, f.msg.N, f.msg.K, f.msg.B,
		f.seen, f.slot, f.walked, f.left)
}

func (f *alg2Frame) LoadState(buf []int) int {
	f.phase, f.subPhase, f.stage, f.tokensSeen, f.circuit, f.n = buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]
	f.cur = activeID{d: buf[6], fNum: buf[7]}
	f.own = activeID{d: buf[8], fNum: buf[9]}
	f.identical, f.min, f.tie = buf[10] != 0, buf[11] != 0, buf[12] != 0
	f.t, f.fNum, f.b = buf[13], buf[14], buf[15]
	f.msg = deployMsg{TBase: buf[16], N: buf[17], K: buf[18], B: buf[19]}
	f.seen, f.slot, f.walked, f.left = buf[20], buf[21], buf[22], buf[23]
	return 24
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
