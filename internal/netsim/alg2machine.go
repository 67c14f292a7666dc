package netsim

import (
	"encoding/json"
	"fmt"

	"agentring/internal/core"
)

// netDeployMsg is the leader->follower deployment message of
// Algorithm 3 in its wire form.
type netDeployMsg struct {
	TBase int `json:"tBase"`
	N     int `json:"n"`
	K     int `json:"k"`
	B     int `json:"b"`
}

// Alg2Machine is Algorithms 2+3 (the log-space uniform deployment with
// knowledge of k) as a serializable state machine for the
// message-passing substrate. Decision logic mirrors internal/core's
// implementation step for step.
type Alg2Machine struct {
	// K is the number of agents.
	K int
}

var _ Machine = Alg2Machine{}

type alg2MPhase int

const (
	a2Init alg2MPhase = iota + 1
	a2Select
	a2LeaderWalk
	a2FollowerWait
	a2FollowerToBase
	a2FollowerSlots
)

// alg2MState is the serialized agent state. All fields are O(log n)
// bits, like the internal/core version.
type alg2MState struct {
	Phase alg2MPhase `json:"phase"`

	// Selection sub-phase bookkeeping.
	TokensSeen int  `json:"tokensSeen"`
	Circuit    int  `json:"circuit"`
	SegIndex   int  `json:"segIndex"` // 0 = measuring own ID, 1 = next, 2+ = others
	SegD       int  `json:"segD"`
	SegF       int  `json:"segF"`
	OwnD       int  `json:"ownD"`
	OwnF       int  `json:"ownF"`
	NextD      int  `json:"nextD"`
	NextF      int  `json:"nextF"`
	Identical  bool `json:"identical"`
	Min        bool `json:"min"`
	N          int  `json:"ringSize"`

	// Leader walk.
	FNum int `json:"fNum"`
	T    int `json:"t"`
	B    int `json:"b"`

	// Follower deployment.
	TBase     int `json:"tBase"`
	Seen      int `json:"seen"`
	MsgN      int `json:"msgN"`
	MsgB      int `json:"msgB"`
	Slot      int `json:"slot"`
	StepsLeft int `json:"stepsLeft"`
	Walked    int `json:"walked"`
}

// InitialState implements Machine.
func (m Alg2Machine) InitialState() (json.RawMessage, error) {
	if m.K < 1 {
		return nil, fmt.Errorf("invalid k=%d", m.K)
	}
	return json.Marshal(alg2MState{Phase: a2Init})
}

// Step implements Machine.
func (m Alg2Machine) Step(raw json.RawMessage, view View) (json.RawMessage, Action, error) {
	var st alg2MState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, Action{}, fmt.Errorf("decode state: %w", err)
	}
	var act Action
	var err error
	switch st.Phase {
	case a2Init:
		act.ReleaseToken = true
		st.Phase = a2Select
		st.Identical, st.Min = true, true
		act.Move = true
	case a2Select:
		err = m.stepSelect(&st, view, &act)
	case a2LeaderWalk:
		err = m.stepLeader(&st, view, &act)
	case a2FollowerWait:
		err = m.stepFollowerWait(&st, view, &act)
	case a2FollowerToBase:
		st.Seen += boolToInt(view.Tokens > 0)
		if st.Seen == st.TBase {
			st.Phase = a2FollowerSlots
			st.Slot = 0
			st.StepsLeft, err = core.SlotInterval(st.MsgN, m.K, st.MsgB, 0)
		}
		act.Move = err == nil
	case a2FollowerSlots:
		err = m.stepFollowerSlots(&st, view, &act)
	default:
		err = fmt.Errorf("unknown phase %d", st.Phase)
	}
	if err != nil {
		return nil, Action{}, err
	}
	out, err := json.Marshal(st)
	if err != nil {
		return nil, Action{}, fmt.Errorf("encode state: %w", err)
	}
	return out, act, nil
}

// stepSelect handles one arrival during a selection sub-phase.
func (m Alg2Machine) stepSelect(st *alg2MState, view View, act *Action) error {
	st.SegD++
	st.Circuit++
	if view.Tokens == 0 {
		act.Move = true
		return nil
	}
	st.TokensSeen++
	if view.OthersHere > 0 {
		// A follower's home: count it and continue the segment.
		st.SegF++
		act.Move = true
		return nil
	}
	// An active node: the current segment ends here.
	wrapped := st.TokensSeen == m.K
	switch st.SegIndex {
	case 0:
		st.OwnD, st.OwnF = st.SegD, st.SegF
		if wrapped {
			// Sole active agent: unique leader at the unique base node.
			if st.N == 0 {
				st.N = st.Circuit
			}
			return m.becomeLeader(st, st.OwnF, act)
		}
	case 1:
		st.NextD, st.NextF = st.SegD, st.SegF
		m.compare(st, st.SegD, st.SegF)
	default:
		m.compare(st, st.SegD, st.SegF)
	}
	st.SegIndex++
	st.SegD, st.SegF = 0, 0
	if !wrapped {
		act.Move = true
		return nil
	}
	// Back home: decide.
	if st.N == 0 {
		st.N = st.Circuit
	} else if st.N != st.Circuit {
		return fmt.Errorf("circuit length changed %d -> %d", st.N, st.Circuit)
	}
	if st.Identical {
		if st.OwnD <= 0 || st.N%st.OwnD != 0 {
			return fmt.Errorf("base distance %d does not divide n=%d", st.OwnD, st.N)
		}
		return m.becomeLeader(st, st.OwnF, act)
	}
	if !st.Min || (st.OwnD == st.NextD && st.OwnF == st.NextF) {
		st.Phase = a2FollowerWait
		return nil // stay and wait for the leader's message
	}
	// Remain active: start the next sub-phase in this same atomic action.
	st.TokensSeen, st.Circuit, st.SegIndex = 0, 0, 0
	st.Identical, st.Min = true, true
	act.Move = true
	return nil
}

func (m Alg2Machine) compare(st *alg2MState, d, f int) {
	if d != st.OwnD || f != st.OwnF {
		st.Identical = false
	}
	if d < st.OwnD || (d == st.OwnD && f < st.OwnF) {
		st.Min = false
	}
}

func (m Alg2Machine) becomeLeader(st *alg2MState, fNum int, act *Action) error {
	st.Phase = a2LeaderWalk
	st.FNum = fNum
	st.T = 0
	st.B = m.K / (fNum + 1)
	act.Move = true
	return nil
}

// stepLeader handles one arrival on the leader's deployment walk.
func (m Alg2Machine) stepLeader(st *alg2MState, view View, act *Action) error {
	if view.Tokens == 0 {
		act.Move = true
		return nil
	}
	if st.T < st.FNum {
		payload, err := json.Marshal(netDeployMsg{TBase: st.FNum - st.T, N: st.N, K: m.K, B: st.B})
		if err != nil {
			return err
		}
		act.Broadcast = []json.RawMessage{payload}
		st.T++
		act.Move = true
		return nil
	}
	act.Halt = true // the next base node: this leader's target
	return nil
}

// stepFollowerWait consumes the leader's message.
func (m Alg2Machine) stepFollowerWait(st *alg2MState, view View, act *Action) error {
	for _, raw := range view.Inbox {
		var msg netDeployMsg
		if err := json.Unmarshal(raw, &msg); err != nil || msg.K != m.K || msg.B < 1 {
			continue
		}
		st.TBase = msg.TBase
		st.MsgN = msg.N
		st.MsgB = msg.B
		st.Seen = 0
		st.Phase = a2FollowerToBase
		act.Move = true
		return nil
	}
	return nil // spurious wake: keep waiting
}

// stepFollowerSlots walks target slot to target slot hunting a vacancy.
func (m Alg2Machine) stepFollowerSlots(st *alg2MState, view View, act *Action) error {
	st.StepsLeft--
	st.Walked++
	if st.Walked > (m.K+4)*st.MsgN {
		return fmt.Errorf("follower found no vacant target within (k+4)n moves")
	}
	if st.StepsLeft > 0 {
		act.Move = true
		return nil
	}
	perSeg := m.K / st.MsgB
	st.Slot = (st.Slot + 1) % perSeg
	if st.Slot != 0 && view.OthersHere == 0 {
		act.Halt = true
		return nil
	}
	var err error
	st.StepsLeft, err = core.SlotInterval(st.MsgN, m.K, st.MsgB, st.Slot)
	if err != nil {
		return err
	}
	act.Move = true
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
