package sim

import (
	"agentring/internal/memmeter"
)

// Message is an arbitrary payload broadcast between co-located agents.
// The model allows messages of any size.
type Message any

// Program is the algorithm one agent executes, in two forms that must
// be observationally identical (the contract on Frame).
//
// Frame is the form the engine executes: it is called once per agent
// at construction, and the returned state machine is stepped once per
// atomic action. Run is the same algorithm as the paper's sequential
// pseudocode, where Move, MoveVia and AwaitMessages return at the
// agent's next activation; it is the reference semantics, executed by
// wrapping it as ProgramFunc(p.Run). Halting (Run returning, a frame
// returning ActionDone) is the paper's halt state (Definition 1);
// waiting forever for a message is its suspended state (Definition 2).
// A non-nil error aborts the whole run.
type Program interface {
	Run(api API) error
	Frame() Frame
}

// API is the world as one anonymous agent sees it, valid during the
// agent's own activation. Move, MoveVia and AwaitMessages block and are
// available to Run only (through ProgramFunc); a Frame ends its action
// by returning the corresponding Action instead.
type API interface {
	// Move ends the current atomic action by moving the agent along
	// port 0 — the forward direction of a ring, and by convention the
	// primary direction of every topology. It returns when the agent
	// has arrived and its next atomic action begins. Move is exactly
	// MoveVia(0), so port-0-only programs (the paper's unidirectional
	// algorithms) run unchanged on any topology.
	Move()

	// MoveVia ends the current atomic action by moving the agent along
	// the given out-port of the current node (0 <= port < OutDegree()).
	// An out-of-range port is a program error and aborts the agent.
	MoveVia(port int)

	// OutDegree returns the number of outgoing ports at the current
	// node. It is 1 everywhere on a unidirectional ring.
	OutDegree() int

	// ArrivalPort returns the port at the *current* node that leads
	// back along the link the agent most recently traversed, or -1 when
	// there is no such information: the agent has not moved yet (the
	// initial activation at its home node), or the topology has no
	// reverse link (e.g. a unidirectional ring). On symmetric
	// topologies this is what port-local traversal rules (Euler tours
	// on trees, right-hand walks) are built from.
	ArrivalPort() int

	// ReleaseToken drops the indelible token at the current node.
	// The model gives each agent one token; releasing more than once is
	// the program's responsibility to avoid (the substrate allows stacked
	// tokens, as does the formal model's per-node counter).
	ReleaseToken()

	// TokensHere returns the token count at the current node.
	TokensHere() int

	// AgentsHere returns the number of other agents currently staying at
	// this node (suspended, waiting, or halted). Agents in transit on
	// links are invisible, as are agents mid-activation (there are none:
	// only one agent acts at a time).
	AgentsHere() int

	// Broadcast sends msg to every other agent staying at the current
	// node. Messages reach a recipient's mailbox immediately and are
	// delivered at its next activation. Halted agents ignore messages.
	Broadcast(msg Message)

	// Messages drains and returns the messages delivered at the start of
	// this atomic action, without blocking. Unread messages are consumed
	// (dropped) when the action ends.
	Messages() []Message

	// AwaitMessages suspends the agent (ending the current atomic action)
	// until at least one message arrives, then returns all delivered
	// messages. If messages delivered in the current action are still
	// unread it returns those immediately without suspending.
	AwaitMessages() []Message

	// Meter is the agent's memory meter; algorithms account their live
	// state through it so memory claims can be measured.
	Meter() *memmeter.Meter
}

// Status describes where an agent is in its lifecycle.
type Status int

// Agent lifecycle states.
const (
	// StatusInTransit means the agent is inside a link's FIFO queue
	// (including the initial home-node incoming buffer).
	StatusInTransit Status = iota + 1
	// StatusWaiting means the agent stays at a node awaiting a message
	// (ActionAwait) — the paper's suspended state.
	StatusWaiting
	// StatusHalted means the agent halted (ActionDone) — the paper's
	// halt state.
	StatusHalted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusInTransit:
		return "in-transit"
	case StatusWaiting:
		return "waiting"
	case StatusHalted:
		return "halted"
	default:
		return "unknown"
	}
}
