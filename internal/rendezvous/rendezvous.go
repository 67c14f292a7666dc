package rendezvous

import (
	"errors"
	"fmt"

	"agentring/internal/seq"
	"agentring/internal/sim"
)

// ErrSymmetric is returned when the initial configuration is periodic:
// no deterministic anonymous algorithm can gather the agents.
var ErrSymmetric = errors.New("rendezvous: periodic configuration, symmetry cannot be broken")

type program struct {
	k int
}

// scalars is an agent's fixed memory in words; the gap list adds one
// word per measured gap.
const scalars = 5

var _ sim.Program = (*program)(nil)

// New returns a rendezvous program for agents that know k.
func New(k int) (sim.Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("rendezvous: k=%d must be positive", k)
	}
	return &program{k: k}, nil
}

// Run implements sim.Program: collect the distance sequence, elect the
// unique minimal rotation's home node, walk there and halt. Fails with
// ErrSymmetric on periodic rings.
func (p *program) Run(api sim.API) error {
	m := api.Meter()
	m.Set(scalars)

	api.ReleaseToken()
	var d []int
	for len(d) < p.k {
		dis := 0
		for {
			api.Move()
			dis++
			if api.TokensHere() > 0 {
				break
			}
		}
		d = append(d, dis)
		m.Set(scalars + len(d))
	}
	if seq.IsPeriodic(d) {
		return ErrSymmetric
	}
	rank := seq.MinRotation(d)
	disBase := seq.Sum(d[:rank])
	for i := 0; i < disBase; i++ {
		api.Move()
	}
	return nil
}

// Frame implements sim.Program: Run as a resumable state machine making
// the same API-call sequence.
func (p *program) Frame() sim.Frame { return &frame{k: p.k} }

// frame phases.
const (
	phaseStart   = iota // first activation, at home
	phaseCollect        // walking to the next token, measuring the gap
	phaseWalk           // walking the last left moves to the base
)

type frame struct {
	k     int
	phase int
	dis   int   // moves into the current gap, counting the one under way
	left  int   // moves still to make toward the base
	d     []int // the gaps measured so far
}

func (f *frame) Step(api sim.API) sim.Action {
	move := sim.Action{Kind: sim.ActionMove}
	switch f.phase {
	case phaseStart:
		api.Meter().Set(scalars)
		api.ReleaseToken()
		f.phase, f.dis = phaseCollect, 1
		return move
	case phaseCollect:
		if api.TokensHere() == 0 {
			f.dis++
			return move
		}
		f.d = append(f.d, f.dis)
		api.Meter().Set(scalars + len(f.d))
		if len(f.d) < f.k {
			f.dis = 1
			return move
		}
		if seq.IsPeriodic(f.d) {
			return sim.Action{Kind: sim.ActionDone, Err: ErrSymmetric}
		}
		f.phase, f.left = phaseWalk, seq.Sum(f.d[:seq.MinRotation(f.d)])
	}
	if f.left == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.left--
	return move
}

// SaveState/LoadState implement sim.FrameSaver: three scalars, then the
// measured gaps prefixed by their count.
func (f *frame) SaveState(buf []int) []int {
	buf = append(buf, f.phase, f.dis, f.left, len(f.d))
	return append(buf, f.d...)
}

func (f *frame) LoadState(buf []int) int {
	f.phase, f.dis, f.left = buf[0], buf[1], buf[2]
	n := buf[3]
	f.d = append(f.d[:0], buf[4:4+n]...)
	return 4 + n
}
