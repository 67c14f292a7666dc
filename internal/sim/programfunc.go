package sim

import (
	"errors"
	"fmt"
	"iter"
)

// ProgramFunc adapts a blocking function — an algorithm written as the
// paper's sequential pseudocode, where Move, MoveVia and AwaitMessages
// return at the agent's next activation — to Program. It is the one
// adapter for such code, and how tests run the reference semantics of
// any program: ProgramFunc(p.Run) executes p's Run in place of its
// Frame.
//
// The function runs on a coroutine (iter.Pull) that the engine resumes
// once per activation. Its frame is not a FrameSaver: a goroutine stack
// cannot be copied, so engines running a ProgramFunc agent are not
// checkpointable.
type ProgramFunc func(api API) error

// Run implements Program.
func (f ProgramFunc) Run(api API) error { return f(api) }

// Frame implements Program.
func (f ProgramFunc) Frame() Frame { return &coroFrame{run: f} }

// errStopped unwinds a coroutine parked in a blocking call when the
// engine retires it; the agent stays in whatever state it was in.
var errStopped = errors.New("sim: engine stopped")

// coroFrame steps a blocking function one atomic action at a time. It
// is also the API the function sees: the engine's own methods, except
// that Move, MoveVia and AwaitMessages end the action by yielding the
// Action a frame would return. The engine folds opMove/opAwait for that
// Action exactly as for any frame, so state hashes match the frame form
// of the same algorithm.
type coroFrame struct {
	*apiState // the agent's engine API, bound at the first Step
	run       ProgramFunc
	next      func() (Action, bool)
	halt      func()
	yield     func(Action) bool
}

// Step implements Frame: it resumes the function until it ends the
// current atomic action. The coroutine starts at the first activation.
func (c *coroFrame) Step(api API) Action {
	if c.next == nil {
		c.apiState = api.(*apiState)
		c.next, c.halt = iter.Pull(c.body)
	}
	act, ok := c.next()
	if !ok {
		return Action{Kind: ActionDone, Err: errors.New("program resumed after it halted")}
	}
	return act
}

// body is the coroutine: run the function, then report how it ended.
// A panic other than the retirement sentinel is a program error.
func (c *coroFrame) body(yield func(Action) bool) {
	c.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errStopped) {
				return
			}
			yield(Action{Kind: ActionDone, Err: fmt.Errorf("program panic: %v", r)})
		}
	}()
	yield(Action{Kind: ActionDone, Err: c.run(c)})
}

// suspend ends the current atomic action with act and returns when the
// agent's next one begins.
func (c *coroFrame) suspend(act Action) {
	if !c.yield(act) {
		panic(errStopped)
	}
}

// Move implements API.
func (c *coroFrame) Move() { c.MoveVia(0) }

// MoveVia implements API. The engine validates the port.
func (c *coroFrame) MoveVia(port int) { c.suspend(Action{Kind: ActionMove, Port: port}) }

// AwaitMessages implements API: messages already delivered in this
// action are returned without suspending.
func (c *coroFrame) AwaitMessages() []Message {
	if len(c.inbox) == 0 {
		c.suspend(Action{Kind: ActionAwait})
	}
	return c.Messages()
}

// stop retires the coroutine; a no-op if it never started.
func (c *coroFrame) stop() {
	if c.halt != nil {
		c.halt()
	}
}
