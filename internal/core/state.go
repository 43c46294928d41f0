package core

import (
	"fmt"
	"sort"

	"icb/internal/obs"
	"icb/internal/sched"
)

// SearchState is the serializable state of an ICB search at an execution
// boundary: everything a fresh process needs to continue the exploration
// exactly where the old one stopped. The stateless design makes the
// snapshot small and exact — work items are replay schedules, visited
// states are 64-bit fingerprints, and no scheduler or heap state needs
// capturing because every execution restarts from the initial state.
//
// Every worker count writes the same schema, and a snapshot from any
// worker count resumes at any other. A 1-worker search resumed from a
// 1-worker snapshot produces a Result identical to the uninterrupted
// run's (up to wall-clock durations): the seed queue preserves the exact
// exploration order, the restored work-item table prunes exactly what the
// original process would have pruned, and the restored coverage sets
// continue the same counters. Any other combination preserves the
// deterministic outputs of an uncached search (bug set with minimal
// preemptions, Executions, States, ExecutionClasses, BoundCompleted,
// Exhausted); execution order within a bound is nondeterministic across
// worker counts either way.
type SearchState struct {
	// Bound is the preemption bound being drained when the snapshot was
	// taken; the resumed search re-enters Algorithm 1's loop at this bound.
	Bound int `json:"bound"`
	// BoundStartExecs is Result.Executions at the moment the bound began
	// (possibly in an earlier process life), so the resumed bound's
	// BoundStat counts executions from every life it spanned.
	BoundStartExecs int `json:"bound_start_execs"`
	// SeedQueue holds the current bound's remaining work items in drain
	// order: for one worker, the in-progress seed's local stack (top
	// first) followed by the untouched tail of the bound's queue.
	SeedQueue []sched.Schedule `json:"seed_queue"`
	// NextWork holds the work items already deferred to bound Bound+1, in
	// the order they were generated.
	NextWork []sched.Schedule `json:"next_work,omitempty"`
	// Result is the accumulated exploration result so far (durations are
	// the old process's and keep growing after resume).
	Result Result `json:"result"`
	// States and Classes are the visited-state and execution-class
	// fingerprint sets, sorted ascending for byte-stable serialization.
	States  []uint64 `json:"states,omitempty"`
	Classes []uint64 `json:"classes,omitempty"`
	// CacheKeys, CacheHits and CacheMisses restore the Algorithm 1
	// work-item table (empty/zero when state caching is off). The table
	// contents matter for exactness: alternatives already enqueued are
	// registered, and replay never re-checks them, so the restored table
	// prunes exactly the duplicates the original process would have.
	CacheKeys   []CacheKeyState `json:"cache_keys,omitempty"`
	CacheHits   int             `json:"cache_hits,omitempty"`
	CacheMisses int             `json:"cache_misses,omitempty"`
	// BPOR records that the snapshot was taken by a search with bounded
	// partial-order reduction enabled; BPORSeen is its registration table
	// (taken and enqueued (prefix, decision) pairs with their order),
	// sorted by key for byte-stable serialization. A BPOR snapshot cannot
	// resume into a non-BPOR search or vice versa: the two prune different
	// work items, so mixing them double-explores or loses subtrees.
	BPOR     bool            `json:"bpor,omitempty"`
	BPORSeen []BPORSeenEntry `json:"bpor_seen,omitempty"`
	// BPORCounters carries the reduction's accounting (per-bound
	// suppressed/emitted, sleep-blocked runs) across a resume, so pruned
	// totals keep accumulating instead of restarting at zero.
	BPORCounters *BPORCounters `json:"bpor_counters,omitempty"`
	// Scheduler tags the schema version of the frontier fields below:
	// SchedulerWS on every snapshot the search driver writes. Empty marks
	// a snapshot of the earlier sequential drain, which carried none of
	// them; it resumes with DoneExecs taken as Executions - BoundStartExecs.
	Scheduler string `json:"scheduler,omitempty"`
	// NextWork2 holds work items already deferred to bound Bound+2 by
	// workers that ran ahead of the softened barrier into bound Bound+1
	// (always empty with one worker).
	NextWork2 []sched.Schedule `json:"next_work2,omitempty"`
	// Held carries early bug sightings whose bound had not retired when the
	// snapshot was taken; a resumed search files them when their bound
	// retires (they are deliberately absent from Result.Bugs until then).
	Held []HeldBug `json:"held_bugs,omitempty"`
	// DoneExecs is the number of executions attributed to bound Bound so
	// far (across every process life); EarlyExecs the same for Bound+1
	// (consumed early through the softened barrier). They restore the
	// search's exhaustion and per-bound attribution counters.
	DoneExecs  int `json:"done_execs,omitempty"`
	EarlyExecs int `json:"early_execs,omitempty"`
}

// SchedulerWS is the SearchState.Scheduler tag of the search driver's
// snapshot schema (bumped if its frontier invariants ever change).
const SchedulerWS = "ws/1"

// HeldBug is one early bug sighting held back by the softened bound
// barrier: Bug is the full report, Bound the preemption bound whose
// retirement releases it.
type HeldBug struct {
	Bound int `json:"bound"`
	Bug   Bug `json:"bug"`
}

// BPORCounters is the serialized pruning accounting of a BPOR search.
type BPORCounters struct {
	// Suppressed and Emitted are per-bound (index = bound, trailing zeros
	// trimmed): blind sibling pushes suppressed, backtracking items
	// emitted in their place.
	Suppressed []int64 `json:"suppressed,omitempty"`
	Emitted    []int64 `json:"emitted,omitempty"`
	// SleepBlocked counts free scheduling points whose enabled threads
	// were all asleep (the execution continued redundantly past them).
	SleepBlocked int64 `json:"sleep_blocked,omitempty"`
}

// CacheKeyState is one serialized work-item-table registration.
type CacheKeyState struct {
	State uint64 `json:"s"`
	// Kind is the decision kind (0 = thread, 1 = data choice).
	Kind int `json:"k"`
	// Val is the thread id or data value of the decision.
	Val int32 `json:"v"`
	// Preempts is the preemption budget spent reaching the state.
	Preempts int32 `json:"p"`
}

// CheckpointSink receives search-state snapshots from a running
// exploration. Implemented by journal.Writer; the search calls Capture
// synchronously at a safepoint, with every worker quiescent, so
// implementations may retain the snapshot without copying until Capture
// returns.
type CheckpointSink interface {
	// Due reports that a periodic checkpoint should be captured at the
	// next execution boundary. It is called once per execution boundary,
	// concurrently by the workers of a parallel search, and must be cheap
	// (one atomic load).
	Due() bool
	// Capture persists one snapshot. final marks snapshots taken because
	// the search is stopping (signal, budget, first bug) — the last state
	// the process will ever write.
	Capture(st *SearchState, final bool)
}

// checkpointDue reports that the attached checkpoint sink wants a snapshot
// at the next execution boundary. One nil-check when checkpointing is off.
func (e *Engine) checkpointDue() bool {
	return e.opt.Checkpoint != nil && e.opt.Checkpoint.Due()
}

// captureState hands one snapshot to the attached checkpoint sink. The
// search driver calls it at execution boundaries (when due), at bound
// barriers, and once more when stopping (final). A matching
// obs.CheckpointEvent goes to the event sink so live surfaces (progress,
// dashboard) see snapshots happen; the journal writer logs its own richer
// record from Capture and ignores the event.
func (e *Engine) captureState(st *SearchState, final bool) {
	e.opt.Checkpoint.Capture(st, final)
	e.ckptSeq++
	if e.sink != nil {
		ev := st.CheckpointEvent(e.ckptSeq, final)
		e.sink.Emit(&ev)
	}
}

// CheckpointEvent summarizes the snapshot for the event stream as the
// seq-th checkpoint of its run; final marks the run's last snapshot.
func (st *SearchState) CheckpointEvent(seq int, final bool) obs.CheckpointEvent {
	return obs.CheckpointEvent{
		Seq:        seq,
		Bound:      st.Bound,
		Executions: st.Result.Executions,
		States:     len(st.States),
		Classes:    len(st.Classes),
		Bugs:       len(st.Result.Bugs),
		SeedQueue:  len(st.SeedQueue),
		NextWork:   len(st.NextWork),
		Scheduler:  st.Scheduler,
		NextWork2:  len(st.NextWork2),
		HeldBugs:   len(st.Held),
		Final:      final,
	}
}

// exportState builds the engine's part of a snapshot at an execution
// boundary: result, coverage sets, work-item table and BPOR state; the
// search driver adds the frontier. The fingerprint sets are sorted so
// that identical search states serialize to identical bytes.
func (e *Engine) exportState() *SearchState {
	st := &SearchState{
		Result:    e.res,
		States:    sortedU64(e.states.Elems()),
		Classes:   sortedU64(e.classes.Elems()),
		Scheduler: SchedulerWS,
	}
	if e.cache != nil {
		st.CacheKeys = e.cache.export()
		st.CacheHits = e.cache.Hits()
		st.CacheMisses = e.cache.Misses()
	}
	if e.bpor != nil {
		st.BPOR = true
		st.BPORSeen = e.bpor.export()
		st.BPORCounters = e.bpor.exportCounters()
	}
	return st
}

// importState restores a snapshot into a freshly constructed engine:
// counters, coverage sets, bug dedup index and the work-item table. Called
// by NewEngine before any execution runs.
func (e *Engine) importState(st *SearchState) {
	e.res = st.Result
	for _, s := range st.States {
		e.states.Add(s)
	}
	for _, s := range st.Classes {
		e.classes.Add(s)
	}
	for i := range e.res.Bugs {
		b := &e.res.Bugs[i]
		if e.bugSeen == nil {
			e.bugSeen = make(map[bugKey]int)
		}
		e.bugSeen[bugKey{kind: b.Kind, msg: b.Message}] = i
	}
	if e.cache != nil {
		e.cache.restore(st.CacheKeys, st.CacheHits, st.CacheMisses)
	}
	if e.bpor != nil {
		e.bpor.restore(st.BPORSeen)
		e.bpor.restoreCounters(st.BPORCounters)
	}
}

// restoreBoundBaseline re-anchors the per-bound execution baseline to the
// executions attributed to earlier bounds, so a bound's BoundStat counts
// exactly its own executions: from every process life it spanned after a
// mid-bound resume (its Duration only covers this one), and not the next
// bound's early ones.
func (e *Engine) restoreBoundBaseline(execs int) {
	e.boundStartExecs = execs
}

// ValidateResume sanity-checks a snapshot against the options about to run
// it. It cannot prove the program is the same one — the config hash in the
// journal metadata does that — but it rejects the structurally impossible.
func ValidateResume(st *SearchState, opt Options) error {
	if st == nil {
		return nil
	}
	if st.Bound < 0 {
		return fmt.Errorf("core: resume state has negative bound %d", st.Bound)
	}
	// Bound MaxPreemptions+1 is legitimate: the end-of-budget snapshot
	// carries the next bound's queue so a resume with a raised bound can
	// continue the campaign; under the same budget it resumes to a no-op.
	if opt.MaxPreemptions >= 0 && st.Bound > opt.MaxPreemptions+1 {
		return fmt.Errorf("core: resume state is at bound %d but the search is bounded at %d", st.Bound, opt.MaxPreemptions)
	}
	if len(st.CacheKeys) > 0 && !opt.StateCache {
		return fmt.Errorf("core: resume state carries a work-item table but state caching is off")
	}
	if opt.StateCache && st.Result.Executions > 0 && len(st.CacheKeys) == 0 {
		return fmt.Errorf("core: state caching is on but the resume state has no work-item table")
	}
	if st.BPOR != opt.BPOR {
		if st.BPOR {
			return fmt.Errorf("core: resume state was captured with partial-order reduction (-bpor) but the search runs without it")
		}
		return fmt.Errorf("core: resume state was captured without partial-order reduction but the search runs with -bpor")
	}
	if st.Scheduler != "" && st.Scheduler != SchedulerWS {
		return fmt.Errorf("core: resume state was captured by unknown scheduler version %q", st.Scheduler)
	}
	return nil
}

func sortedU64(s []uint64) []uint64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
