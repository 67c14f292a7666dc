package baseline

import (
	"fmt"

	"agentring/internal/sim"
)

// noToken is a token-less deployment attempt, used to demonstrate the
// paper's Section 2 remark: "if agents are not allowed to have tokens,
// they cannot mark nodes in any way and this means that the uniform
// deployment problem cannot be solved", because under synchronous
// scheduling identical deterministic agents observe identical local
// views and the whole configuration only ever rotates rigidly.
//
// The program is the strongest thing a token-less anonymous agent can
// do with knowledge of n and k: walk, watch for co-located agents, and
// stop after a deterministic schedule of moves (here: probe stride
// points like FirstFit, minus the token channel). The accompanying
// experiment shows its gap multiset is invariant under the synchronous
// scheduler — whatever the schedule of moves, a non-uniform start stays
// non-uniform.
type noToken struct {
	n, k int
}

var _ sim.Program = (*noToken)(nil)

// NewNoToken returns the token-less impossibility demonstrator.
func NewNoToken(n, k int) (sim.Program, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("baseline: invalid n=%d k=%d", n, k)
	}
	return &noToken{n: n, k: k}, nil
}

// Run implements sim.Program. Note the complete absence of
// ReleaseToken/TokensHere: the agent is blind to everything except
// co-located staying agents — which, under synchronous scheduling of
// identical programs, it never sees, since everyone moves in lockstep.
func (p *noToken) Run(api sim.API) error {
	stride := p.n / p.k
	if stride == 0 {
		stride = 1
	}
	for hop := 0; hop < 2*p.k; hop++ {
		for i := 0; i < stride; i++ {
			api.Move()
		}
		if api.AgentsHere() == 0 {
			return nil
		}
	}
	return nil
}

// Frame implements sim.Program: the FirstFit stride hunt without its
// memory accounting, making the same API-call sequence as Run.
func (p *noToken) Frame() sim.Frame { return &strideFrame{n: p.n, k: p.k} }
