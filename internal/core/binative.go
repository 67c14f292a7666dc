package core

import (
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// biNative is the bidirectional-ring variant of Algorithm 1, the first
// algorithm in this codebase that exploits the engine's multi-port
// topology layer. It assumes the substrate is a bidirectional ring
// whose port 0 is the forward (clockwise) link and port 1 the backward
// link (internal/topo.BiRing).
//
// The selection phase is exactly Algorithm 1's: release the token, walk
// one full forward circuit collecting the distance sequence D, and
// derive n, the base rank, and the target offset. The deployment phase
// then moves along whichever direction is shorter: forward delta =
// (disBase + offset) mod n steps via port 0, or backward n - delta
// steps via port 1. The final positions are *identical* to Algorithm
// 1's on the same initial configuration (the target assignment is a
// pure function of the token geometry), but the deployment phase costs
// at most floor(n/2) moves per agent instead of up to ~2n, so total
// moves drop strictly whenever any agent's target lies behind it.
// Correctness under asynchrony is unchanged: the return journey reads
// nothing — agents in transit interact with nobody — and every token is
// already placed before any agent finishes its circuit.
type biNative struct {
	k int
}

var _ sim.Program = (*biNative)(nil)

// NewBiNative returns the bidirectional Algorithm 1 variant for agents
// that know k. The substrate must expose the backward link as port 1.
func NewBiNative(k int) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadParam, k)
	}
	return &biNative{k: k}, nil
}

// biNativeScalars is the fixed scalar working set metered by the
// bidirectional variant: j, dis, n, rank, disBase, moved, delta.
const biNativeScalars = 7

// Run implements sim.Program.
func (p *biNative) Run(api sim.API) error {
	if deg := api.OutDegree(); deg < 2 {
		return fmt.Errorf("%w: bidirectional algorithm on out-degree-%d node", ErrBadParam, deg)
	}
	m := api.Meter()
	const scalars = biNativeScalars
	m.Set(scalars)

	// Selection phase (identical to Algorithm 1): release the token,
	// travel once forward around the ring, recording the distance
	// between consecutive token nodes.
	api.ReleaseToken()
	var d []int
	moved := 0
	for {
		dis := 0
		for {
			api.Move()
			moved++
			dis++
			if api.TokensHere() > 0 {
				break
			}
		}
		d = append(d, dis)
		m.Set(scalars + len(d))
		if len(d) == p.k {
			break
		}
	}
	n := moved // one full circuit
	if seq.Sum(d) != n {
		return fmt.Errorf("%w: distance sequence sums to %d, circuit length %d", ErrInvariant, seq.Sum(d), n)
	}

	// Target selection, shared with Algorithm 1.
	rank := seq.MinRotation(d)
	disBase := seq.Sum(d[:rank])
	b := seq.SymmetryDegree(d)
	offset, err := TargetOffset(n, p.k, b, rank)
	if err != nil {
		return fmt.Errorf("target for rank %d: %w", rank, err)
	}

	// Deployment phase: the agent is back at its home node, so the
	// target lies delta nodes ahead — take the short way around.
	delta := (disBase + offset) % n
	if delta <= n-delta {
		for i := 0; i < delta; i++ {
			api.Move()
		}
	} else {
		for i := 0; i < n-delta; i++ {
			api.MoveVia(1)
		}
	}
	// Returning enters the halt state: termination detection achieved.
	return nil
}

// Frame implements sim.Program: the bidirectional variant as a resumable
// state machine making the same API-call sequence as Run.
func (p *biNative) Frame() sim.Frame { return &biNativeFrame{p: p} }

type biNativeFrame struct {
	p     *biNative
	phase int // 0 init, 1 selection circuit, 2 deployment
	d     []int
	dis   int
	moved int
	port  int // deployment direction: 0 forward, 1 backward
	left  int // deployment moves remaining
}

func (f *biNativeFrame) Step(api sim.API) sim.Action {
	switch f.phase {
	case 0:
		if deg := api.OutDegree(); deg < 2 {
			return sim.Action{Kind: sim.ActionDone,
				Err: fmt.Errorf("%w: bidirectional algorithm on out-degree-%d node", ErrBadParam, deg)}
		}
		api.Meter().Set(biNativeScalars)
		api.ReleaseToken()
		f.phase = 1
		return f.selMove()
	case 1:
		if api.TokensHere() > 0 {
			f.d = append(f.d, f.dis)
			api.Meter().Set(biNativeScalars + len(f.d))
			if len(f.d) == f.p.k {
				return f.deployStart()
			}
			f.dis = 0
		}
		return f.selMove()
	default:
		if f.left == 0 {
			return sim.Action{Kind: sim.ActionDone}
		}
		f.left--
		return sim.Action{Kind: sim.ActionMove, Port: f.port}
	}
}

func (f *biNativeFrame) selMove() sim.Action {
	f.moved++
	f.dis++
	return sim.Action{Kind: sim.ActionMove}
}

func (f *biNativeFrame) deployStart() sim.Action {
	n, d := f.moved, f.d
	if seq.Sum(d) != n {
		return sim.Action{Kind: sim.ActionDone,
			Err: fmt.Errorf("%w: distance sequence sums to %d, circuit length %d", ErrInvariant, seq.Sum(d), n)}
	}
	rank := seq.MinRotation(d)
	disBase := seq.Sum(d[:rank])
	b := seq.SymmetryDegree(d)
	offset, err := TargetOffset(n, f.p.k, b, rank)
	if err != nil {
		return sim.Action{Kind: sim.ActionDone, Err: fmt.Errorf("target for rank %d: %w", rank, err)}
	}
	delta := (disBase + offset) % n
	f.phase = 2
	if delta <= n-delta {
		f.port, f.left = 0, delta
	} else {
		f.port, f.left = 1, n-delta
	}
	if f.left == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.left--
	return sim.Action{Kind: sim.ActionMove, Port: f.port}
}

// SaveState/LoadState implement sim.FrameSaver (see alg1Frame): phase,
// counters, the deployment direction, and the length-prefixed distance
// sequence.
func (f *biNativeFrame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.moved, f.port, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *biNativeFrame) LoadState(buf []int) int {
	f.phase, f.dis, f.moved, f.port, f.left = buf[0], buf[1], buf[2], buf[3], buf[4]
	n := buf[5]
	f.d = append(f.d[:0], buf[6:6+n]...)
	return 6 + n
}
