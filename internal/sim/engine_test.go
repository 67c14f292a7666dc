package sim

import (
	"errors"
	"fmt"
	"testing"

	"agentring/internal/ring"
)

// walker moves a fixed number of steps and halts: a frame without
// FrameSaver.
type walkerProgram struct{ left int }

func walker(steps int) Program { return &walkerProgram{left: steps} }

func (w *walkerProgram) Run(api API) error {
	for ; w.left > 0; w.left-- {
		api.Move()
	}
	return nil
}

func (w *walkerProgram) Frame() Frame { return w }

func (w *walkerProgram) Step(api API) Action {
	if w.left == 0 {
		return Action{Kind: ActionDone}
	}
	w.left--
	return Action{Kind: ActionMove, Port: 0}
}

func run(t *testing.T, n int, homes []ring.NodeID, programs []Program, opts Options) (Result, *ring.Ring) {
	t.Helper()
	r := ring.MustNew(n)
	e, err := NewEngine(r, homes, programs, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, r
}

func TestNewEngineValidation(t *testing.T) {
	r := ring.MustNew(4)
	noop := ProgramFunc(func(API) error { return nil })
	tests := []struct {
		name     string
		ring     *ring.Ring
		homes    []ring.NodeID
		programs []Program
	}{
		{"nil ring", nil, []ring.NodeID{0}, []Program{noop}},
		{"no agents", r, nil, nil},
		{"mismatched lengths", r, []ring.NodeID{0, 1}, []Program{noop}},
		{"too many agents", ring.MustNew(2), []ring.NodeID{0, 1, 0}, []Program{noop, noop, noop}},
		{"duplicate homes", r, []ring.NodeID{1, 1}, []Program{noop, noop}},
		{"home out of range", r, []ring.NodeID{9}, []Program{noop}},
		{"negative home", r, []ring.NodeID{-1}, []Program{noop}},
		{"nil program", r, []ring.NodeID{0}, []Program{nil}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEngine(tt.ring, tt.homes, tt.programs, Options{}); !errors.Is(err, ErrBadSetup) {
				t.Errorf("error = %v, want ErrBadSetup", err)
			}
		})
	}
}

func TestSingleAgentWalksAndHalts(t *testing.T) {
	res, _ := run(t, 5, []ring.NodeID{1}, []Program{walker(7)}, Options{})
	a := res.Agents[0]
	if a.Moves != 7 {
		t.Errorf("moves = %d, want 7", a.Moves)
	}
	if a.Node != ring.NodeID((1+7)%5) {
		t.Errorf("final node = %d, want %d", a.Node, (1+7)%5)
	}
	if a.Status != StatusHalted {
		t.Errorf("status = %v, want halted", a.Status)
	}
	if !res.AllHalted() || !res.QueuesEmpty {
		t.Error("expected clean halted quiescence")
	}
}

func TestTokenReleaseIsPermanentAndCounted(t *testing.T) {
	prog := ProgramFunc(func(api API) error {
		api.ReleaseToken()
		if api.TokensHere() != 1 {
			return fmt.Errorf("tokens here = %d, want 1", api.TokensHere())
		}
		api.Move()
		if api.TokensHere() != 0 {
			return fmt.Errorf("tokens at next node = %d, want 0", api.TokensHere())
		}
		return nil
	})
	res, _ := run(t, 3, []ring.NodeID{0}, []Program{prog}, Options{})
	if res.Tokens[0] != 1 || res.Tokens[1] != 0 || res.Tokens[2] != 0 {
		t.Errorf("result tokens = %v", res.Tokens)
	}
}

func TestHomeNodeFirstAction(t *testing.T) {
	// Agent 0 sprints one full circle; agent 1's very first action must
	// still happen at its own home before agent 0's token-drop there can
	// be missed. We verify agent 1 sees no token before it drops its own:
	// agent 0 drops a token only at node 1 (agent 1's home) after
	// arriving there. If agent 1 had not acted first, it would observe
	// agent 0's token.
	var sawToken bool
	fast := ProgramFunc(func(api API) error {
		api.Move() // 0 -> 1
		api.ReleaseToken()
		return nil
	})
	slow := ProgramFunc(func(api API) error {
		sawToken = api.TokensHere() > 0
		api.Move()
		return nil
	})
	// Adversarial scheduler tries hard to run agent 1 late; the incoming
	// home buffer must still order agent 1's start before agent 0's
	// arrival at node 1 (FIFO on the link into node 1).
	run(t, 4, []ring.NodeID{0, 1}, []Program{fast, slow}, Options{Scheduler: NewAdversarial(3)})
	if sawToken {
		t.Error("agent 1 was not first to act at its own home node")
	}
}

func TestFIFONoOvertaking(t *testing.T) {
	// Two agents race around an 8-ring; the trailing agent can never
	// pass the leading one. We detect overtaking by having each agent
	// record token observations: agent 1 (behind agent 0) must see agent
	// 0's token at every node agent 0 visited... simpler: both walk the
	// same number of steps; the gap between them (in ring distance from 1
	// to 0's position) must never change sign. We sample positions via a
	// trace.
	trace := NewTrace(10000)
	res, _ := run(t, 8, []ring.NodeID{0, 1},
		[]Program{walker(20), walker(20)},
		Options{Scheduler: NewRandom(42), Trace: trace})
	if res.TotalMoves != 40 {
		t.Fatalf("total moves = %d, want 40", res.TotalMoves)
	}
	// Replay the trace, tracking arrival counts; agent 1's arrivals at a
	// node must never exceed agent 0's arrivals at the node agent 1
	// started behind... The robust invariant: cumulative moves of the
	// follower never exceed cumulative moves of the leader plus the
	// initial gap distance along the same lap structure. Here we simply
	// assert per-node arrival interleaving: at node v, agent 0 (which
	// started 1 behind... agent 0 at node 0, agent 1 at node 1).
	// Agent 0 trails agent 1. For every node v, agent 0's i-th arrival at
	// v must come after agent 1's i-th arrival at v (agent 1 passed it
	// first).
	// No-overtaking invariant: agent 1 leads agent 0 (it starts one node
	// ahead), so at every node v except agent 0's own home, agent 1 must
	// have arrived at v at least as many times as agent 0 (the initial
	// home-buffer pop counts as agent 1's first "arrival" at node 1). At
	// agent 0's home node 0, agent 0 is allowed one extra arrival (its
	// initial one).
	arrivals := map[int]map[ring.NodeID]int{0: {}, 1: {}}
	for _, ev := range trace.Events() {
		if ev.Kind != "arrive" {
			continue
		}
		arrivals[ev.Agent][ev.Node]++
		if ev.Agent != 0 {
			continue
		}
		slack := 0
		if ev.Node == 0 {
			slack = 1
		}
		if arrivals[0][ev.Node] > arrivals[1][ev.Node]+slack {
			t.Fatalf("overtaking detected at node %d: %v", ev.Node, ev)
		}
	}
}

func TestBroadcastAndAwait(t *testing.T) {
	// Agent 0 waits at home for a message; agent 1 walks to it and
	// broadcasts a payload.
	var got Message
	waiter := ProgramFunc(func(api API) error {
		msgs := api.AwaitMessages()
		if len(msgs) != 1 {
			return fmt.Errorf("got %d messages, want 1", len(msgs))
		}
		got = msgs[0]
		return nil
	})
	sender := ProgramFunc(func(api API) error {
		api.Move()
		api.Move() // node 4 -> 0 on a 5-ring? homes: waiter at 1, sender at 4: 4->0->1
		api.Move()
		if api.AgentsHere() != 1 {
			return fmt.Errorf("agents here = %d, want 1", api.AgentsHere())
		}
		api.Broadcast("hello")
		return nil
	})
	res, _ := run(t, 5, []ring.NodeID{1, 3}, []Program{waiter, sender}, Options{})
	if got != "hello" {
		t.Errorf("message = %v, want hello", got)
	}
	if res.MessagesSent != 1 || res.MessagesDelivered != 1 {
		t.Errorf("sent=%d delivered=%d, want 1,1", res.MessagesSent, res.MessagesDelivered)
	}
}

func TestBroadcastDoesNotReachInTransitAgents(t *testing.T) {
	// Agent 1 is in transit (in the link queue toward node 1) when agent
	// 0 broadcasts at node 1; the message must not be delivered.
	received := false
	bystander := ProgramFunc(func(api API) error {
		api.Move() // enters transit toward node 1... then arrives
		if len(api.Messages()) > 0 {
			received = true
		}
		return nil
	})
	broadcaster := ProgramFunc(func(api API) error {
		api.Broadcast("ghost")
		return nil
	})
	// Homes: broadcaster at 1; bystander at 0 moving toward 1.
	// Adversarial scheduling can interleave arbitrarily; in no
	// interleaving may the bystander receive: while staying it is never
	// co-located pre-halt... Use round-robin for determinism: bystander
	// yields Move (into queue to node 1), broadcaster broadcasts at node
	// 1 with nobody staying there.
	sched := NewRoundRobin()
	res, _ := run(t, 3, []ring.NodeID{0, 1}, []Program{bystander, broadcaster}, Options{Scheduler: sched})
	if received {
		t.Error("in-transit agent received a broadcast")
	}
	if res.MessagesDelivered != 0 {
		t.Errorf("delivered = %d, want 0", res.MessagesDelivered)
	}
}

func TestUnreadMessagesAreConsumed(t *testing.T) {
	// A mover that ignores messages must still end with an empty mailbox
	// ("after taking an atomic action, the agent has no message").
	mover := ProgramFunc(func(api API) error {
		for i := 0; i < 3; i++ {
			api.Move()
		}
		msgs := api.Messages()
		if len(msgs) != 0 {
			return fmt.Errorf("stale messages leaked across actions: %d", len(msgs))
		}
		return nil
	})
	pesterer := ProgramFunc(func(api API) error {
		// Stays at the mover's home and broadcasts whenever co-located.
		api.Broadcast("noise")
		return nil
	})
	res, _ := run(t, 4, []ring.NodeID{0, 1}, []Program{mover, pesterer}, Options{})
	if !res.MailboxesEmpty {
		t.Error("mailboxes not empty at quiescence")
	}
}

func TestAwaitReturnsCurrentActionMessagesWithoutSuspending(t *testing.T) {
	// If messages were already delivered in this atomic action,
	// AwaitMessages must return them immediately.
	woke := make(chan struct{}, 1)
	waiter := ProgramFunc(func(api API) error {
		first := api.AwaitMessages() // suspends; woken by sender
		second := api.AwaitMessages()
		// first wake delivered both messages at once (sender broadcast
		// twice in one action), so second must not block: it returns the
		// leftover... both were drained by the first call, so this one
		// suspends again and is woken by the second sender action.
		_ = first
		_ = second
		woke <- struct{}{}
		return nil
	})
	sender := ProgramFunc(func(api API) error {
		api.Move() // 1 -> 0? homes sender 1 on ring of 2: 1 -> 0
		api.Broadcast("a")
		api.Broadcast("b")
		api.Move() // 0 -> 1
		api.Move() // 1 -> 0
		api.Broadcast("c")
		return nil
	})
	res, _ := run(t, 2, []ring.NodeID{0, 1}, []Program{waiter, sender}, Options{})
	select {
	case <-woke:
	default:
		t.Fatal("waiter did not complete")
	}
	if res.MessagesSent != 3 {
		t.Errorf("sent = %d, want 3", res.MessagesSent)
	}
}

func TestSuspendedQuiescence(t *testing.T) {
	// All agents suspend forever: the run must end with AllSuspended and
	// empty queues/mailboxes (Definition 2 shape).
	suspend := ProgramFunc(func(api API) error {
		api.Move()
		api.AwaitMessages() // never woken
		return nil
	})
	res, _ := run(t, 6, []ring.NodeID{0, 3}, []Program{suspend, suspend}, Options{})
	if !res.AllSuspended() {
		t.Error("expected all agents suspended")
	}
	if !res.QueuesEmpty || !res.MailboxesEmpty {
		t.Error("expected empty queues and mailboxes")
	}
	if res.AllHalted() {
		t.Error("AllHalted must be false")
	}
}

func TestProgramErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	bad := ProgramFunc(func(api API) error {
		api.Move()
		return boom
	})
	r := ring.MustNew(3)
	e, err := NewEngine(r, []ring.NodeID{0}, []Program{bad}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want boom", err)
	}
}

func TestProgramPanicBecomesError(t *testing.T) {
	bad := ProgramFunc(func(api API) error {
		panic("kaboom")
	})
	r := ring.MustNew(3)
	e, err := NewEngine(r, []ring.NodeID{0}, []Program{bad}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(); err == nil {
		t.Error("Run must surface program panics as errors")
	}
}

func TestStepLimit(t *testing.T) {
	// Two agents forever bouncing messages never quiesce; the engine
	// must stop at MaxSteps with ErrStepLimit.
	pingpong := ProgramFunc(func(api API) error {
		for {
			api.Move()
		}
	})
	r := ring.MustNew(4)
	e, err := NewEngine(r, []ring.NodeID{0}, []Program{pingpong}, Options{MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(); !errors.Is(err, ErrStepLimit) {
		t.Errorf("error = %v, want ErrStepLimit", err)
	}
}

func TestMoveCountingPerAgent(t *testing.T) {
	res, _ := run(t, 10, []ring.NodeID{0, 5, 7},
		[]Program{walker(3), walker(0), walker(11)}, Options{Scheduler: NewRandom(7)})
	want := []int{3, 0, 11}
	for i, a := range res.Agents {
		if a.Moves != want[i] {
			t.Errorf("agent %d moves = %d, want %d", i, a.Moves, want[i])
		}
	}
	if res.TotalMoves != 14 {
		t.Errorf("total = %d, want 14", res.TotalMoves)
	}
}

func TestSynchronousRoundsMatchLongestWalk(t *testing.T) {
	// Under the synchronous scheduler, a continuously moving agent takes
	// one move per round, so rounds == the longest walk length (+1 for
	// the initial activation round in which it also moves).
	sched := NewSynchronous()
	res, _ := run(t, 16, []ring.NodeID{0, 8}, []Program{walker(12), walker(5)}, Options{Scheduler: sched})
	if res.Rounds == 0 {
		t.Fatal("rounds not reported")
	}
	// walker(12): initial arrival + 12 arrivals = 13 activations, one per
	// round, but the final activation (halt) shares the round budget:
	// rounds must be within [12, 14].
	if res.Rounds < 12 || res.Rounds > 14 {
		t.Errorf("rounds = %d, want about 13", res.Rounds)
	}
}

func TestSchedulersAllQuiesce(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"roundrobin":  func() Scheduler { return NewRoundRobin() },
		"random":      func() Scheduler { return NewRandom(99) },
		"synchronous": func() Scheduler { return NewSynchronous() },
		"adversarial": func() Scheduler { return NewAdversarial(5) },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			res, _ := run(t, 12, []ring.NodeID{0, 1, 6},
				[]Program{walker(24), walker(17), walker(3)}, Options{Scheduler: mk()})
			if !res.AllHalted() {
				t.Error("agents did not all halt")
			}
			if res.TotalMoves != 44 {
				t.Errorf("total moves = %d, want 44", res.TotalMoves)
			}
		})
	}
}

func TestAgentsHereSeesWaitingAndHalted(t *testing.T) {
	counts := make([]int, 0, 2)
	// halted-at-home agent
	sitter := ProgramFunc(func(api API) error { return nil })
	// waiting agent one hop later
	waiterDone := ProgramFunc(func(api API) error {
		api.AwaitMessages()
		return nil
	})
	observer := ProgramFunc(func(api API) error {
		api.Move() // to node 1 (sitter halted)
		counts = append(counts, api.AgentsHere())
		api.Move() // to node 2 (waiter suspended)
		counts = append(counts, api.AgentsHere())
		return nil
	})
	// Round-robin: agents 0(sitter@1),1(waiter@2),2(observer@0).
	run(t, 5, []ring.NodeID{1, 2, 0}, []Program{sitter, waiterDone, observer}, Options{})
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 1 {
		t.Errorf("observer counts = %v, want [1 1]", counts)
	}
}

func TestHaltedAgentsIgnoreBroadcasts(t *testing.T) {
	sitter := ProgramFunc(func(api API) error { return nil })
	sender := ProgramFunc(func(api API) error {
		api.Move()
		api.Broadcast("wake up")
		return nil
	})
	res, _ := run(t, 3, []ring.NodeID{1, 0}, []Program{sitter, sender}, Options{})
	if res.MessagesDelivered != 0 {
		t.Errorf("delivered = %d, want 0 (recipient halted)", res.MessagesDelivered)
	}
	if !res.MailboxesEmpty {
		t.Error("mailboxes must be empty")
	}
}

func TestMeterSurfacesInResult(t *testing.T) {
	prog := ProgramFunc(func(api API) error {
		api.Meter().Grow(17)
		api.Meter().Shrink(10)
		return nil
	})
	res, _ := run(t, 2, []ring.NodeID{0}, []Program{prog}, Options{})
	if res.Agents[0].PeakWords != 17 {
		t.Errorf("peak words = %d, want 17", res.Agents[0].PeakWords)
	}
	if res.MaxPeakWords() != 17 {
		t.Errorf("MaxPeakWords = %d, want 17", res.MaxPeakWords())
	}
}

func TestTraceRecordsAndBounds(t *testing.T) {
	trace := NewTrace(8)
	r := ring.MustNew(4)
	e, err := NewEngine(r, []ring.NodeID{0}, []Program{walker(10)}, Options{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace.Events()) != 8 {
		t.Errorf("trace length = %d, want 8 (capacity)", len(trace.Events()))
	}
	if trace.Dropped() == 0 {
		t.Error("expected dropped events")
	}
	if trace.String() == "" {
		t.Error("empty trace rendering")
	}
}

func TestResultPositionsAndMaxMoves(t *testing.T) {
	res, _ := run(t, 6, []ring.NodeID{0, 3}, []Program{walker(2), walker(9)}, Options{})
	pos := res.Positions()
	if pos[0] != 2 || pos[1] != ring.NodeID((3+9)%6) {
		t.Errorf("positions = %v", pos)
	}
	if res.MaxMoves() != 9 {
		t.Errorf("MaxMoves = %d, want 9", res.MaxMoves())
	}
}

func TestDeterminismWithSeededRandom(t *testing.T) {
	runOnce := func() Result {
		r := ring.MustNew(9)
		progs := []Program{walker(13), walker(8), walker(21)}
		e, err := NewEngine(r, []ring.NodeID{0, 2, 5}, progs, Options{Scheduler: NewRandom(1234)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.Steps != b.Steps || a.TotalMoves != b.TotalMoves {
		t.Errorf("nondeterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.Agents {
		if a.Agents[i].Node != b.Agents[i].Node {
			t.Errorf("agent %d final node differs: %d vs %d", i, a.Agents[i].Node, b.Agents[i].Node)
		}
	}
}
