// Package netsim is a second, independently built substrate for the
// paper's model: a truly concurrent message-passing implementation in
// which mobile agents are what they are in practice — messages.
//
// Each ring node runs as its own goroutine; each unidirectional link is
// a FIFO Go channel; an agent is a serialized (encoding/json) state
// blob that migrates from node to node inside an envelope, exactly the
// "agents are implemented as messages" realization the paper's model
// section appeals to. A node executes one resident agent step at a
// time (the model's atomic action), so per-node serialization plus
// FIFO links gives the Section 2 semantics while nodes genuinely run
// in parallel.
//
// # Quiescence detection
//
// Quiescence (all agents halted or waiting, no envelope in flight) is
// detected with a credit-counting scheme in the Dijkstra–Scholten
// style: every unit of outstanding work (an agent arrival or a wake)
// increments a global counter before it is enqueued and decrements it
// after it is fully processed, so the counter reaches zero exactly at
// global quiescence.
//
// # Role: cross-validation
//
// netsim exists to cross-validate internal/sim: the deployment
// algorithms are deterministic functions of the token geometry, so both
// substrates must produce identical final positions despite completely
// different concurrency structures (crossvalidate_test.go sweeps
// placements; machines_test.go pins each state machine against its
// internal/core twin). It deliberately supports neither alternative
// topologies nor fault schedules — it is the ring-only referee, and the
// public RunConcurrent rejects configurations it cannot express.
package netsim
