package core

import (
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// patrolMsg is the correction message of the patrolling phase
// (Algorithm 5, line 5): the sender's estimates, its total move count,
// and its full observed distance sequence.
type patrolMsg struct {
	NPrime int   // estimated ring size n'
	KPrime int   // estimated agent count k'
	Nodes  int   // sender's total moves when it sent the message
	D      []int // sender's 4k'-entry distance sequence
}

// relaxed implements Algorithms 4-6 (Section 4.2): uniform deployment
// without termination detection for agents with no knowledge of k or n.
//
// Phases per agent:
//
//   - estimating: record token-to-token distances until the sequence is a
//     fourfold repetition; estimate k' = |D|/4, n' = sum of one quarter.
//   - patrolling: keep moving until 12 n' total moves, handing every
//     agent met a correction message.
//   - deployment: walk to the estimated base node and the rank-th target,
//     then suspend. A message proving the estimate at least doubled
//     restarts deployment from a caught-up position (12 x new n' total
//     moves).
type relaxed struct {
	// repetitions is the estimating-phase stopping rule; the paper
	// requires 4. Other values exist only for the ablation experiment
	// and are rejected by NewRelaxed (use NewRelaxedAblation).
	repetitions int
	// patrolMultiple is the patrolling budget in units of n'; the paper
	// patrols until nodes = 12 n' (i.e. 8 n' patrol moves after a 4 n'
	// estimating phase).
	patrolMultiple int
}

var _ sim.Program = (*relaxed)(nil)

// NewRelaxed returns the paper's relaxed uniform-deployment program.
func NewRelaxed() sim.Program {
	return &relaxed{repetitions: 4, patrolMultiple: 12}
}

// NewRelaxedAblation returns a variant with a different estimating
// repetition count and patrol budget, used by the ablation experiments
// to show why the paper's constants are needed. repetitions must be at
// least 2 and patrolMultiple at least repetitions+1.
func NewRelaxedAblation(repetitions, patrolMultiple int) (sim.Program, error) {
	if repetitions < 2 {
		return nil, fmt.Errorf("%w: repetitions=%d", ErrBadParam, repetitions)
	}
	if patrolMultiple < repetitions+1 {
		return nil, fmt.Errorf("%w: patrol multiple %d below repetitions+1", ErrBadParam, patrolMultiple)
	}
	return &relaxed{repetitions: repetitions, patrolMultiple: patrolMultiple}, nil
}

// relaxedScalars is the fixed scalar working set metered by the relaxed
// algorithm: nPrime, kPrime, nodes, dis, rank, disBase, t, loop counters.
const relaxedScalars = 8

// Run implements sim.Program.
func (p *relaxed) Run(api sim.API) error {
	m := api.Meter()
	m.Set(relaxedScalars)

	// ---- Estimating phase (Algorithm 4) ----
	api.ReleaseToken()
	var d []int
	nodes := 0
	for {
		dis := 0
		for {
			api.Move()
			nodes++
			dis++
			if api.TokensHere() > 0 {
				break
			}
		}
		d = append(d, dis)
		m.Set(relaxedScalars + len(d))
		if seq.RepetitionPrefix(d, p.repetitions) {
			break
		}
	}
	kPrime := len(d) / p.repetitions
	nPrime := seq.Sum(d[:kPrime])

	// ---- Patrolling phase (Algorithm 5) ----
	// Move until the total move count reaches patrolMultiple * n',
	// correcting every suspended agent encountered.
	for nodes < p.patrolMultiple*nPrime {
		api.Move()
		nodes++
		if api.AgentsHere() > 0 {
			api.Broadcast(patrolMsg{NPrime: nPrime, KPrime: kPrime, Nodes: nodes, D: append([]int(nil), d...)})
		}
	}

	// ---- Deployment phase (Algorithm 6) ----
	for {
		fund := d[:kPrime]
		rank := seq.MinRotation(fund)
		disBase := seq.Sum(fund[:rank])
		offset, err := TargetOffset(nPrime, kPrime, 1, rank)
		if err != nil {
			return fmt.Errorf("relaxed target for rank %d: %w", rank, err)
		}
		for i := 0; i < disBase+offset; i++ {
			api.Move()
			nodes++
		}

		// Suspended state: wait for a message proving a bigger ring.
		accepted := false
		var upd patrolMsg
		for !accepted {
			for _, raw := range api.AwaitMessages() {
				msg, ok := raw.(patrolMsg)
				if !ok {
					continue
				}
				if nPrime > msg.NPrime/2 {
					continue // sender's estimate is not at least double ours
				}
				// The sender must have recorded our whole distance sequence
				// as a sub-block of its own, offset so that the prefix of
				// its sequence covers the gap between our move counts
				// (Algorithm 6, line 14). The gap is positional, hence
				// checked modulo the sender's ring estimate — see
				// seq.AlignSubsequenceMod.
				if _, ok := seq.AlignSubsequenceMod(d, msg.D, msg.Nodes-nodes, msg.NPrime); ok {
					upd, accepted = msg, true
					break
				}
			}
		}
		// Adopt the sender's estimates; re-anchor the distance sequence to
		// start from our own (virtual) home.
		t, _ := seq.AlignSubsequenceMod(d, upd.D, upd.Nodes-nodes, upd.NPrime)
		nPrime, kPrime = upd.NPrime, upd.KPrime
		d = seq.Rotate(upd.D, t)
		m.Set(relaxedScalars + len(d))

		// Catch up so that our total moves again equal 12 x n' — the
		// position congruent to our home 12 estimated circuits along
		// (always ahead of us: Lemma 5 shows 12 n'new - nodes > 0).
		catchUp := p.patrolMultiple*nPrime - nodes
		if catchUp < 0 {
			return fmt.Errorf("%w: catch-up distance %d is negative", ErrInvariant, catchUp)
		}
		for i := 0; i < catchUp; i++ {
			api.Move()
			nodes++
		}
	}
}

// Frame implements sim.Program: Algorithms 4-6 as a resumable state
// machine making the same API-call sequence as Run.
func (p *relaxed) Frame() sim.Frame { return &relaxedFrame{p: p} }

// relaxedFrame phases.
const (
	relaxedInit    = iota
	relaxedEstim   // estimating: token-to-token distances
	relaxedPatrol  // patrolling: correcting every agent met
	relaxedDeploy  // deployment walk to the estimated target
	relaxedSuspend // suspended: testing each correction received
	relaxedCatchUp // catch-up walk after adopting a correction
)

// relaxedFrame is the data-oriented execution of Algorithms 4-6. d is
// owned by the frame: broadcasts send a copy, and an adopted sequence
// is rotated into d's own storage, so no message shares its backing
// array (checkpoints share mailbox messages across restores).
type relaxedFrame struct {
	p              *relaxed
	phase          int
	d              []int
	dis, nodes     int
	nPrime, kPrime int
	left           int // moves remaining in the deployment or catch-up walk
}

func (f *relaxedFrame) Step(api sim.API) sim.Action {
	switch f.phase {
	case relaxedInit:
		api.Meter().Set(relaxedScalars)
		api.ReleaseToken()
		f.phase = relaxedEstim
		return f.estimMove()
	case relaxedEstim:
		if api.TokensHere() == 0 {
			return f.estimMove()
		}
		f.d = append(f.d, f.dis)
		api.Meter().Set(relaxedScalars + len(f.d))
		if !seq.RepetitionPrefix(f.d, f.p.repetitions) {
			f.dis = 0
			return f.estimMove()
		}
		f.kPrime = len(f.d) / f.p.repetitions
		f.nPrime = seq.Sum(f.d[:f.kPrime])
		f.phase = relaxedPatrol
		return f.patrol()
	case relaxedPatrol:
		if api.AgentsHere() > 0 {
			api.Broadcast(patrolMsg{NPrime: f.nPrime, KPrime: f.kPrime, Nodes: f.nodes, D: append([]int(nil), f.d...)})
		}
		return f.patrol()
	case relaxedDeploy:
		return f.deployMove()
	case relaxedSuspend:
		for _, raw := range api.Messages() {
			msg, ok := raw.(patrolMsg)
			if !ok || f.nPrime > msg.NPrime/2 {
				continue
			}
			if t, ok := seq.AlignSubsequenceMod(f.d, msg.D, msg.Nodes-f.nodes, msg.NPrime); ok {
				return f.adopt(api, msg, t)
			}
		}
		return awaitAction
	default: // relaxedCatchUp
		return f.catchUpMove()
	}
}

func (f *relaxedFrame) estimMove() sim.Action {
	f.nodes++
	f.dis++
	return moveAction
}

// patrol is the head of Run's patrolling loop.
func (f *relaxedFrame) patrol() sim.Action {
	if f.nodes < f.p.patrolMultiple*f.nPrime {
		f.nodes++
		return moveAction
	}
	return f.deployStart()
}

// deployStart computes the estimated target, as each pass of Run's
// deployment loop does.
func (f *relaxedFrame) deployStart() sim.Action {
	fund := f.d[:f.kPrime]
	rank := seq.MinRotation(fund)
	disBase := seq.Sum(fund[:rank])
	offset, err := TargetOffset(f.nPrime, f.kPrime, 1, rank)
	if err != nil {
		return failAction(fmt.Errorf("relaxed target for rank %d: %w", rank, err))
	}
	f.phase, f.left = relaxedDeploy, disBase+offset
	return f.deployMove()
}

func (f *relaxedFrame) deployMove() sim.Action {
	if f.left == 0 {
		// The walk ends on an arrival (empty inbox) or, with no moves, in
		// the activation whose inbox adopt's caller already drained:
		// AwaitMessages suspends without reading.
		f.phase = relaxedSuspend
		return awaitAction
	}
	f.left--
	f.nodes++
	return moveAction
}

// adopt takes a correction's estimates, re-anchors d at the agent's own
// (virtual) home, and starts the catch-up walk.
func (f *relaxedFrame) adopt(api sim.API, msg patrolMsg, t int) sim.Action {
	f.nPrime, f.kPrime = msg.NPrime, msg.KPrime
	f.d = append(append(f.d[:0], msg.D[t:]...), msg.D[:t]...)
	api.Meter().Set(relaxedScalars + len(f.d))
	catchUp := f.p.patrolMultiple*f.nPrime - f.nodes
	if catchUp < 0 {
		return failAction(fmt.Errorf("%w: catch-up distance %d is negative", ErrInvariant, catchUp))
	}
	f.phase, f.left = relaxedCatchUp, catchUp
	return f.catchUpMove()
}

func (f *relaxedFrame) catchUpMove() sim.Action {
	if f.left == 0 {
		return f.deployStart()
	}
	f.left--
	f.nodes++
	return moveAction
}

// SaveState/LoadState implement sim.FrameSaver (see alg1Frame): phase,
// counters, estimates, and the length-prefixed distance sequence.
func (f *relaxedFrame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.nodes, f.nPrime, f.kPrime, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *relaxedFrame) LoadState(buf []int) int {
	f.phase, f.dis, f.nodes, f.nPrime, f.kPrime, f.left = buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]
	n := buf[6]
	f.d = append(f.d[:0], buf[7:7+n]...)
	return 7 + n
}
