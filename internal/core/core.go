package core

import (
	"errors"
	"fmt"

	"agentring/internal/sim"
)

// Exported errors.
var (
	// ErrInvariant is returned when an algorithm's internal invariant is
	// violated — it indicates a bug in the algorithm or the substrate,
	// never a legal execution.
	ErrInvariant = errors.New("core: algorithm invariant violated")
	// ErrBadParam rejects invalid constructor arguments.
	ErrBadParam = errors.New("core: invalid parameter")
)

// The frames' shared action values. failAction ends the agent with a
// program error, as a Run returning err does.
var (
	moveAction  = sim.Action{Kind: sim.ActionMove}
	awaitAction = sim.Action{Kind: sim.ActionAwait}
	doneAction  = sim.Action{Kind: sim.ActionDone}
)

func failAction(err error) sim.Action { return sim.Action{Kind: sim.ActionDone, Err: err} }

// TargetOffset returns the forward distance from a base node to the
// rank-th target node on an n-node ring with k agents and b base nodes.
//
// This realizes the generalization of Section 3.1.1: with r = n mod k,
// each of the b inter-base segments holds k/b targets; the first r/b
// intervals in a segment have length ceil(n/k) and the remaining ones
// floor(n/k). The base-node conditions guarantee b | k, b | n and hence
// b | r, so all divisions are exact.
func TargetOffset(n, k, b, rank int) (int, error) {
	if n < 1 || k < 1 || b < 1 {
		return 0, fmt.Errorf("%w: n=%d k=%d b=%d", ErrBadParam, n, k, b)
	}
	if k > n || k%b != 0 || n%b != 0 {
		return 0, fmt.Errorf("%w: base count %d incompatible with n=%d k=%d", ErrBadParam, b, n, k)
	}
	if rank < 0 || rank >= k/b {
		return 0, fmt.Errorf("%w: rank %d outside segment [0,%d)", ErrBadParam, rank, k/b)
	}
	r := n % k
	if r%b != 0 {
		return 0, fmt.Errorf("%w: r=%d not divisible by b=%d", ErrBadParam, r, b)
	}
	wide := r / b // intervals of length ceil(n/k) at the start of each segment
	offset := rank * (n / k)
	if rank < wide {
		offset += rank
	} else {
		offset += wide
	}
	return offset, nil
}

// SlotInterval returns the distance from target slot `slot` to the next
// target slot (wrapping from the last slot of a segment to the base node
// of the next segment). Slots are numbered 0..k/b-1 within a segment,
// slot 0 being the base node itself.
func SlotInterval(n, k, b, slot int) (int, error) {
	perSeg := k / b
	if slot < 0 || slot >= perSeg {
		return 0, fmt.Errorf("%w: slot %d outside [0,%d)", ErrBadParam, slot, perSeg)
	}
	cur, err := TargetOffset(n, k, b, slot)
	if err != nil {
		return 0, err
	}
	if slot == perSeg-1 {
		return n/b - cur, nil
	}
	next, err := TargetOffset(n, k, b, slot+1)
	if err != nil {
		return 0, err
	}
	return next - cur, nil
}
