package netsim

import (
	"encoding/json"
	"fmt"

	"agentring/internal/core"
	"agentring/internal/seq"
)

// Alg1Machine is Algorithm 1 (the paper's native O(k log n)-memory
// uniform deployment with knowledge of k) re-implemented as a
// serializable state machine for the message-passing substrate. Its
// decisions are identical to internal/core's implementation,
// which is what the cross-validation tests exploit.
type Alg1Machine struct {
	// K is the number of agents, the knowledge this variant assumes.
	K int
}

var _ Machine = Alg1Machine{}

// alg1Phase enumerates the machine's phases.
type alg1Phase int

const (
	phaseInit alg1Phase = iota + 1
	phaseSeek
	phaseDeploy
)

// alg1State is the serialized per-agent state.
type alg1State struct {
	Phase     alg1Phase `json:"phase"`
	D         []int     `json:"d"`
	Dis       int       `json:"dis"`
	Remaining int       `json:"remaining"`
}

// InitialState implements Machine.
func (m Alg1Machine) InitialState() (json.RawMessage, error) {
	if m.K < 1 {
		return nil, fmt.Errorf("invalid k=%d", m.K)
	}
	return json.Marshal(alg1State{Phase: phaseInit})
}

// Step implements Machine.
func (m Alg1Machine) Step(raw json.RawMessage, view View) (json.RawMessage, Action, error) {
	var st alg1State
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, Action{}, fmt.Errorf("decode state: %w", err)
	}
	var act Action
	switch st.Phase {
	case phaseInit:
		// First activation at the home node: drop the token and start the
		// selection circuit.
		act.ReleaseToken = true
		act.Move = true
		st.Phase = phaseSeek
	case phaseSeek:
		st.Dis++
		if view.Tokens == 0 {
			act.Move = true
			break
		}
		st.D = append(st.D, st.Dis)
		st.Dis = 0
		if len(st.D) < m.K {
			act.Move = true
			break
		}
		// Circuit complete: compute the base node and target exactly as
		// Algorithm 1 does.
		n := seq.Sum(st.D)
		rank := seq.MinRotation(st.D)
		disBase := seq.Sum(st.D[:rank])
		b := seq.SymmetryDegree(st.D)
		offset, err := core.TargetOffset(n, m.K, b, rank)
		if err != nil {
			return nil, Action{}, fmt.Errorf("target for rank %d: %w", rank, err)
		}
		st.Remaining = disBase + offset
		st.D = nil // the distance sequence is no longer needed
		if st.Remaining == 0 {
			act.Halt = true
			break
		}
		st.Phase = phaseDeploy
		act.Move = true
	case phaseDeploy:
		st.Remaining--
		if st.Remaining == 0 {
			act.Halt = true
			break
		}
		act.Move = true
	default:
		return nil, Action{}, fmt.Errorf("unknown phase %d", st.Phase)
	}
	out, err := json.Marshal(st)
	if err != nil {
		return nil, Action{}, fmt.Errorf("encode state: %w", err)
	}
	return out, act, nil
}
