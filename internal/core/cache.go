package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/sched"
)

// Cache is the work-item table of Algorithm 1 (§3, "State caching"): the
// set of (state, decision) pairs whose exploration has been started or
// enqueued. A state is identified by the canonical happens-before
// fingerprint of the execution prefix (package hb), which is sound for
// pruning because scheduling and data choices are the only nondeterminism
// in the model and both are part of the fingerprint — equal fingerprints
// imply equivalent executions, hence identical program states and
// identical subtrees (up to 64-bit fingerprint collisions, which we accept
// as the paper's checkers accept hash compaction). Data choices earn their
// place the hard way: a fuzzing campaign found a cached run missing a bug
// outright because prefixes differing only in a Choose value shared a
// fingerprint, so the cache cut a path to a genuinely different state (see
// TestCachedICBSoundWithDataChoices and hb.Fingerprinter.OnChoice).
//
// Strategies consult TryTake in two places, mirroring Algorithm 1 exactly:
//
//   - when about to take a decision beyond the replayed prefix: a failed
//     TryTake means Search(w) already ran for this work item, so the
//     execution is cut (the "if table.Contains(w) then return" guard);
//   - when about to push an alternative: a failed TryTake means the same
//     work item was already enqueued elsewhere, so the push is skipped.
//
// Decisions taken during replay are never checked: their work items were
// registered when they were pushed.
//
// For a preemption-bounded search the key must include the preemptions
// already spent reaching the state, not the state alone: two paths to the
// same state with different preemption counts have different remaining
// budgets, so their subtrees differ in what they can expose within the
// current bound. Merging them (as a bare (state, decision) key would) lets
// a cheap-budget path consume the registration and cut an
// expensive-budget path whose no-preempt continuation would have exposed
// a bug earlier — first found by a generated-program fuzzing campaign as
// a cached run first sighting a bug at 2 preemptions whose true minimum
// is 1, violating the minimal-preemption-first guarantee (see
// TestCachedICBMinimalFirstWithBudgetSplit). Preemption-agnostic
// strategies (DFS) pass 0 and get the maximal pruning of the plain
// (state, decision) key.
//
// The table persists across bounds within one exploration, so a
// (state, budget) pair first reached at bound b is never re-expanded at a
// later bound — the behavior of Algorithm 1's global table. (Exact
// per-bound execution counts are only guaranteed without caching; the
// coverage experiments use caching, the counting experiments do not.)
type Cache struct {
	fp    *hb.Fingerprinter
	table map[cacheKey]struct{}
	// totals are the search-wide lookup counters, shared by every worker's
	// Cache of a parallel search and seeded with a resumed search's
	// restored totals, so each hit reports search-wide cumulative numbers.
	totals *lookupTotals

	// shared, when non-nil, replaces the private table with a lock-striped
	// one owned by a parallel search: every worker's Cache points at the
	// same sharedTable, so TryTake stays a single atomic check-and-set per
	// decision across all workers.
	shared *sharedTable

	// Telemetry, set by the engine: sink is nil when disabled; ev is the
	// reused hit event.
	sink obs.Sink
	ev   obs.CacheEvent

	// Profiling (both nil when off; a Cache is per-worker, so neither field
	// races). probeNS, when non-nil, accumulates this execution's probe
	// time — the engine installs it only on sampled executions. lockWait is
	// the worker's shared-table contention observer, active on every
	// profiled execution (contention counters are cumulative, not sampled).
	probeNS  *int64
	lockWait hb.Contention
}

type cacheKey struct {
	state uint64
	kind  sched.DecisionKind
	val   int32
	// preempts is the number of preempting context switches spent reaching
	// the state (always 0 for preemption-agnostic strategies).
	preempts int32
}

// lookupTotals counts work-item-table lookups: hits (pruned duplicates)
// and misses (newly registered items).
type lookupTotals struct {
	hits, misses atomic.Int64
}

func newCache(fp *hb.Fingerprinter) *Cache {
	return &Cache{fp: fp, table: make(map[cacheKey]struct{}), totals: new(lookupTotals)}
}

// TryTake registers the work item (current state, d, preemptions spent)
// and reports whether it was new. A false result means the item's subtree
// is already explored or enqueued. Preemption-bounded strategies must pass
// the preemptions spent on the current path (see the soundness note in the
// type docs); preemption-agnostic ones pass 0.
func (c *Cache) TryTake(d sched.Decision, preempts int) bool {
	return c.TryTakeAt(c.fp.Fingerprint(), d, preempts)
}

// TryTakeAt is TryTake keyed on an explicit state fingerprint instead of
// the fingerprinter's current state. The BPOR layer uses it to register
// backtracking work items at earlier points of the current execution: the
// emission happens after the conflicting step ran, but the work item
// belongs to the state recorded when the earlier point was passed.
func (c *Cache) TryTakeAt(state uint64, d sched.Decision, preempts int) bool {
	if c.probeNS == nil {
		return c.tryTake(state, d, preempts)
	}
	t0 := time.Now()
	ok := c.tryTake(state, d, preempts)
	*c.probeNS += time.Since(t0).Nanoseconds()
	return ok
}

func (c *Cache) tryTake(state uint64, d sched.Decision, preempts int) bool {
	k := cacheKey{state: state, kind: d.Kind, preempts: int32(preempts)}
	if d.Kind == sched.DecisionThread {
		k.val = int32(d.Thread)
	} else {
		k.val = int32(d.Data)
	}
	taken := false
	if c.shared != nil {
		taken = !c.shared.tryInsert(k, c.lockWait)
	} else if _, ok := c.table[k]; ok {
		taken = true
	}
	if taken {
		hits := c.totals.hits.Add(1)
		if c.sink != nil {
			c.ev = obs.CacheEvent{Hits: hits, Misses: c.totals.misses.Load()}
			c.sink.Emit(&c.ev)
		}
		return false
	}
	if c.shared == nil {
		c.table[k] = struct{}{}
	}
	c.totals.misses.Add(1)
	return true
}

// export serializes the registered work items for a search checkpoint,
// sorted so that identical tables serialize to identical bytes. Reads the
// shared table stripe by stripe when attached to one; callers checkpoint
// only at execution boundaries and bound barriers, where no tryInsert is
// in flight.
func (c *Cache) export() []CacheKeyState {
	var out []CacheKeyState
	add := func(k cacheKey) {
		out = append(out, CacheKeyState{
			State:    k.state,
			Kind:     int(k.kind),
			Val:      k.val,
			Preempts: k.preempts,
		})
	}
	if c.shared != nil {
		for i := range c.shared.shards {
			sh := &c.shared.shards[i]
			sh.mu.Lock()
			for k := range sh.m {
				add(k)
			}
			sh.mu.Unlock()
		}
	} else {
		for k := range c.table {
			add(k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Val != b.Val {
			return a.Val < b.Val
		}
		return a.Preempts < b.Preempts
	})
	return out
}

// restore loads a checkpoint's work-item table and lookup counters into
// this cache (or its attached shared table). Restoring the exact table is
// what makes a resumed search behave identically: replayed decisions never
// consult the table, and every alternative the old process had already
// enqueued is registered, so the resumed search prunes exactly what the
// uninterrupted one would have.
func (c *Cache) restore(keys []CacheKeyState, hits, misses int) {
	for _, ks := range keys {
		k := cacheKey{
			state:    ks.State,
			kind:     sched.DecisionKind(ks.Kind),
			val:      ks.Val,
			preempts: ks.Preempts,
		}
		if c.shared != nil {
			c.shared.tryInsert(k, nil)
		} else {
			c.table[k] = struct{}{}
		}
	}
	c.totals.hits.Store(int64(hits))
	c.totals.misses.Store(int64(misses))
}

// Hits returns the search-wide number of pruned duplicates.
func (c *Cache) Hits() int { return int(c.totals.hits.Load()) }

// Misses returns the search-wide number of lookups that registered a new
// work item.
func (c *Cache) Misses() int { return int(c.totals.misses.Load()) }

// Size returns the number of registered work items.
func (c *Cache) Size() int {
	if c.shared != nil {
		return c.shared.size()
	}
	return len(c.table)
}

// cacheShards is the stripe count of sharedTable. Cache keys lead with a
// splitmix64 state fingerprint, so the low bits distribute uniformly.
const cacheShards = 64

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]struct{}
	_  [32]byte // keep neighboring stripe locks off one cache line
}

// sharedTable is the concurrent work-item table of a parallel search: one
// striped map shared by every worker's Cache. tryInsert is the atomic
// check-and-set that makes Algorithm 1's "registered exactly once"
// invariant hold under concurrent draining — when two workers reach an
// equivalent state simultaneously, exactly one wins the registration and
// the other is cut.
type sharedTable struct {
	shards [cacheShards]cacheShard
}

func newSharedTable() *sharedTable {
	t := &sharedTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[cacheKey]struct{})
	}
	return t
}

// tryInsert registers k and reports whether it was new. Duplicate lookups
// — the common case late in a bound, when stealing workers keep reaching
// states their siblings already registered — resolve under a shared read
// lock, so concurrent duplicate checks on one stripe never exclude each
// other; only a genuinely new key pays the exclusive write acquire (with a
// re-check, since a racing worker may have registered it in the window
// between the two locks). With a non-nil contention observer, uncontended
// acquires take the TryLock fast paths (no clock reading); only acquires
// that found the stripe lock held are timed and reported.
func (t *sharedTable) tryInsert(k cacheKey, c hb.Contention) bool {
	sh := &t.shards[k.state&(cacheShards-1)]
	if !sh.mu.TryRLock() {
		if c != nil {
			t0 := time.Now()
			sh.mu.RLock()
			c.NoteWait(time.Since(t0).Nanoseconds())
		} else {
			sh.mu.RLock()
		}
	}
	_, dup := sh.m[k]
	sh.mu.RUnlock()
	if dup {
		return false
	}
	if !sh.mu.TryLock() {
		if c != nil {
			t0 := time.Now()
			sh.mu.Lock()
			c.NoteWait(time.Since(t0).Nanoseconds())
		} else {
			sh.mu.Lock()
		}
	}
	if _, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return false
	}
	sh.m[k] = struct{}{}
	sh.mu.Unlock()
	return true
}

// size returns the number of registered work items.
func (t *sharedTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
