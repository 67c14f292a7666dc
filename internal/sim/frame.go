package sim

// ActionKind is how a Frame ends one atomic action.
type ActionKind int

// Frame actions: the three ways an atomic action ends.
const (
	// ActionMove moves the agent along Port (Move() is ActionMove with
	// Port 0).
	ActionMove ActionKind = iota + 1
	// ActionAwait suspends the agent until a message arrives.
	ActionAwait
	// ActionDone halts the agent; Err, if non-nil, aborts the run.
	ActionDone
)

// Action is the outcome of one Frame step: what Run expresses by
// blocking in Move/MoveVia or AwaitMessages, returned as a value.
type Action struct {
	Kind ActionKind
	Port int   // out-port for ActionMove
	Err  error // program error for ActionDone
}

// Frame is the executable form of a Program: a small resumable state
// machine the engine steps once per activation. Step performs the local
// computation of one atomic action — the paper's "read the node's
// tokens, agents and messages, compute" — through api, and returns how
// the action ends: move, suspend, or halt.
//
// Equivalence contract (what keeps a frame byte-identical in traces and
// state hashes to its Program's Run, executed as ProgramFunc(p.Run)):
//
//   - Step must make the same API call sequence Run makes between two
//     consecutive blocking calls. The engine folds the opMove/opAwait
//     observation opcodes for the returned Action itself, in the same
//     position the blocking calls would.
//   - Step must not call the blocking methods Move, MoveVia, or
//     AwaitMessages; doing so aborts the agent with a program error.
//   - Before returning ActionAwait, Step should drain Messages():
//     AwaitMessages returns already-delivered messages without
//     suspending, so a frame that suspends instead must first have
//     observed an empty inbox to match. Messages left unread when Step
//     returns are dropped.
//   - An out-of-range ActionMove port fails the agent with a program
//     error.
//
// Every program in the repository is a frame that also implements
// FrameSaver, which makes its engines checkpointable; the only frame
// without it is ProgramFunc's coroutine adapter.
type Frame interface {
	Step(api API) Action
}
