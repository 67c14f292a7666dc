package baseline

import (
	"fmt"

	"agentring/internal/sim"
)

type firstFit struct {
	n, k int
}

var _ sim.Program = (*firstFit)(nil)

// NewFirstFit returns the uncoordinated strawman. maxLaps bounds how
// long an agent hunts for a vacant stride point before giving up and
// halting wherever it stands (the heuristic has no termination
// guarantee of its own).
func NewFirstFit(n, k int) (sim.Program, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("baseline: invalid n=%d k=%d", n, k)
	}
	return &firstFit{n: n, k: k}, nil
}

// Run implements sim.Program.
func (p *firstFit) Run(api sim.API) error {
	m := api.Meter()
	m.Set(4)
	stride := p.n / p.k
	if stride == 0 {
		stride = 1
	}
	// Hunt stride points for at most 2 laps, then give up in place. The
	// agent always strides at least once so the heuristic actually
	// scatters instead of trivially declaring its own home a stride
	// point.
	maxHops := 2 * p.k
	for hop := 0; hop < maxHops; hop++ {
		for i := 0; i < stride; i++ {
			api.Move()
		}
		if api.AgentsHere() == 0 {
			return nil
		}
	}
	return nil // park wherever we are; likely not uniform
}

// Frame implements sim.Program: the strawman as a resumable state
// machine making the same API-call sequence as Run.
func (p *firstFit) Frame() sim.Frame { return &strideFrame{n: p.n, k: p.k, metered: true} }

// strideFrame is the stride-point hunt of FirstFit and noToken as a
// frame: stride moves per hop, then settle at a vacant node, for at most
// 2k hops. The two programs differ only in FirstFit's memory accounting
// (metered).
type strideFrame struct {
	n, k    int
	metered bool
	started bool
	stride  int
	hop     int // completed stride hops
	i       int // moves issued in the current hop
}

func (f *strideFrame) Step(api sim.API) sim.Action {
	if !f.started {
		f.started = true
		if f.metered {
			api.Meter().Set(4)
		}
		f.stride = f.n / f.k
		if f.stride == 0 {
			f.stride = 1
		}
		f.i = 1
		return sim.Action{Kind: sim.ActionMove}
	}
	if f.i < f.stride {
		f.i++
		return sim.Action{Kind: sim.ActionMove}
	}
	// A stride point: vacant means settle, occupied means hop again —
	// until the hop budget runs out and the agent parks in place.
	if api.AgentsHere() == 0 {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.hop++
	if f.hop >= 2*f.k {
		return sim.Action{Kind: sim.ActionDone}
	}
	f.i = 1
	return sim.Action{Kind: sim.ActionMove}
}

// SaveState/LoadState implement sim.FrameSaver: the frame's resumable
// state is four scalars (started encoded as 0/1).
func (f *strideFrame) SaveState(buf []int) []int {
	started := 0
	if f.started {
		started = 1
	}
	return append(buf, started, f.stride, f.hop, f.i)
}

func (f *strideFrame) LoadState(buf []int) int {
	f.started = buf[0] != 0
	f.stride, f.hop, f.i = buf[1], buf[2], buf[3]
	return 4
}
