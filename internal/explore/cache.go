package explore

import (
	"sync"
	"sync/atomic"
)

// stats is the search's shared scoreboard. Every counter is atomic so
// workers update it without serializing on a global lock; all counters
// are monotone sums (or maxes), so the totals are independent of the
// order workers happened to interleave in — which is what lets the
// Workers=1 and Workers=8 runs of a complete search report identical
// States, Terminals and DistinctTerminals.
type stats struct {
	states            atomic.Int64
	pruned            atomic.Int64
	sleepSkips        atomic.Int64
	replays           atomic.Int64
	stepsReplayed     atomic.Int64
	terminals         atomic.Int64
	distinctTerminals atomic.Int64
	truncated         atomic.Int64
	deepest           atomic.Int64
}

// observeDepth folds one expanded depth into the running maximum.
func (s *stats) observeDepth(depth int) {
	d := int64(depth)
	for {
		cur := s.deepest.Load()
		if d <= cur || s.deepest.CompareAndSwap(cur, d) {
			return
		}
	}
}

// cacheShards is the number of independently locked cache partitions.
// 64 keeps the probability of two of ≤16 workers colliding on a shard
// low while the per-shard maps stay large enough to amortize; the shard
// index just takes low key bits, because keys are already avalanche
// hashes (sim state keys, or mix64-finalized depth tags under faults).
const cacheShards = 64

// cacheEntry records how a canonical state was last explored: the
// shallowest depth it was expanded at, the sleep set in force then, and
// whether it is a quiescent terminal. A revisit is redundant iff it is
// no shallower and would explore a subset of the transitions (its sleep
// set is a superset of the stored one).
type cacheEntry struct {
	depth    int
	sleep    sleepSet
	terminal bool
}

// stateCache is the canonical-state cache, sharded by key so concurrent
// workers almost never contend: each shard is a plain map behind its own
// mutex, and a visit touches exactly one shard. Entries are only ever
// weakened (depth lowered, sleep set shrunk), so two workers racing on
// the same key converge to the union of their explorations — the race
// can cost a redundant re-expansion, never a lost state.
type stateCache struct {
	shards [cacheShards]struct {
		mu sync.Mutex
		m  map[uint64]cacheEntry
	}
}

func newStateCache() *stateCache {
	c := &stateCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]cacheEntry)
	}
	return c
}

// visitOutcome says what the expansion loop must do with a reached
// state after consulting the cache.
type visitOutcome int

const (
	// visitExpand: new or strictly-wider visit — expand children using
	// the sleep set returned alongside.
	visitExpand visitOutcome = iota
	// visitPruned: subsumed by a prior visit — unwind.
	visitPruned
	// visitTruncated: the MaxStates budget is exhausted — unwind and
	// count the cut branch.
	visitTruncated
)

// visit applies the cache discipline to one reached state under the
// owning shard's lock and updates the scoreboard. It returns the
// outcome, the (possibly intersected) sleep set an expansion must use,
// and whether this visit is the first to see the key as a terminal —
// the one visit allowed to run the property check, so each terminal
// configuration is judged exactly once no matter how many schedules
// reach it or which worker got there first.
//
// MaxStates is enforced against the shared states counter; concurrent
// inserts on different shards can overshoot it by at most one state per
// worker, and with Workers <= 1 the bound is exact (which keeps
// truncated sequential searches deterministic).
// Sleep sets are frozen once handed in (see sleepSet), so entries store
// the caller's slice directly — no defensive clone, and entries live in
// the map by value, so a fresh state costs one map insert and nothing
// else.
func (c *stateCache) visit(key uint64, depth int, sleep sleepSet, terminal bool, maxStates int64, st *stats) (visitOutcome, sleepSet, bool) {
	s := &c.shards[key%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.m[key]
	if ok && entry.depth <= depth && subsetOf(entry.sleep, sleep) {
		st.pruned.Add(1)
		if terminal {
			st.terminals.Add(1)
		}
		return visitPruned, nil, false
	}
	if !ok {
		if st.states.Load() >= maxStates {
			st.truncated.Add(1)
			return visitTruncated, nil, false
		}
		st.states.Add(1)
		s.m[key] = cacheEntry{depth: depth, sleep: sleep, terminal: terminal}
		if terminal {
			st.terminals.Add(1)
			st.distinctTerminals.Add(1)
		}
		return visitExpand, sleep, terminal
	}
	// Seen before, but this visit is shallower or suppresses fewer
	// transitions: re-explore the union by intersecting sleep sets.
	sleep = intersectSleep(sleep, entry.sleep)
	entry.sleep = sleep
	if depth < entry.depth {
		entry.depth = depth
	}
	first := false
	if terminal {
		st.terminals.Add(1)
		// The key determines the configuration, so a revisited terminal
		// key was terminal on first visit too; first stays false and the
		// property is not re-checked. The defensive update keeps the
		// invariant even if that ever changed.
		first = !entry.terminal
		if first {
			entry.terminal = true
			st.distinctTerminals.Add(1)
		}
	}
	s.m[key] = entry
	if terminal {
		return visitExpand, nil, first
	}
	return visitExpand, sleep, false
}
