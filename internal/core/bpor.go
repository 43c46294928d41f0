package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"icb/internal/obs"
	"icb/internal/sched"
)

// This file implements bounded partial-order reduction (BPOR) for the ICB
// search: dynamic partial-order reduction in the style of Flanagan &
// Godefroid, adapted to preemption bounding following Coons, Musuvathi &
// McKinley (the design dejafu's sctBounded/pBacktrack realizes). The
// profiler's per-bound redundancy accounting shows that most executions at
// a bound merely reorder independent steps of an already-seen Mazurkiewicz
// trace; BPOR prunes them while preserving what ICB guarantees: every
// trace whose minimal representative has at most c preemptions is covered
// when bound c completes, so the bug set, the ExecutionClasses count and
// the minimal-preemption first sighting are unchanged. What is NOT
// preserved is the exact execution count — that is the point.
//
// Three mechanisms, all driven by the dependency relation hb.Dependent
// (sched.Op.Conflicts):
//
//   - Targeted backtracking replaces blind expansion. Plain ICB pushes
//     every enabled thread u != Prev at every preemptible point into the
//     next bound. Under BPOR, the first time a decision is executed, the
//     search scans the recorded earlier scheduling points of the current
//     execution for steps conflicting with the decision's operation; for
//     each such step it emits the reordering work item at that earlier
//     point (the chosen thread there if enabled, else every enabled
//     thread — the classical fallback). A reordering that costs one more
//     preemption than the current bound goes to the next bound's queue;
//     one affordable within the bound goes to the local stack.
//
//   - Conservative backtracking points keep bounding sound. Reversing a
//     race can change where context switches fall, so the minimal
//     representative of the reversed trace may preempt at the prior
//     context switch rather than at the conflicting step itself (the
//     pBacktrack insight). For every non-conservative point added at step
//     j, the search also emits every enabled thread at the first point of
//     the quantum containing j (the prior context switch).
//
//   - Sleep sets suppress re-exploration of covered first-steps. Every
//     (prefix, decision) pair the search has taken or enqueued is
//     registered, in order, in a search-global table. When a later work
//     item replays through a prefix, every sibling decision registered
//     before the replayed one is put to sleep: its subtree is already
//     covered, so at voluntary (free) scheduling points the sleeping
//     thread is neither picked nor pushed until some executed operation
//     conflicts with its pending one (which wakes it). A free point whose
//     enabled threads are all asleep continues with a redundant run
//     rather than cutting — cutting there is the classic
//     sleep-set-blocking unsoundness (the lost suffix never runs its
//     scans); only the sibling pushes are suppressed.
//
//   - Truncated executions fall back to blind branching. An assertion
//     failure, panic or step limit aborts a run before the surviving
//     threads' remaining steps can justify backtracking points, so every
//     scheduling point of such an execution is expanded exactly as plain
//     ICB would (see bporExpandTruncated); aborting runs are the rare
//     case, so the reduction's savings survive.
//
// The registration table doubles as emission deduplication (each work
// item is generated at most once, which also bounds the reduction's own
// bookkeeping) and is part of the search checkpoint, so a resumed BPOR
// search prunes exactly what the uninterrupted one would have.
//
// The reduction composes with the work-item cache: backtracking emissions
// at earlier points consult the cache with the happens-before fingerprint
// recorded at that point (Cache.TryTakeAt), mirroring what plain ICB's
// push does at the current point.

// bporSeen is one registered (prefix, decision) pair: Seq is its global
// registration order (the sleep-set "explored earlier" order), Scanned
// whether the decision's backtracking scan has run (the scan runs at the
// pair's first execution, which for enqueued work items is later than its
// registration).
type bporSeen struct {
	Seq     uint64
	Scanned bool
}

// bporState is the search-global state of the reduction, shared by every
// worker engine of a parallel search and persisted in checkpoints.
type bporState struct {
	mu   sync.Mutex
	seen map[string]bporSeen
	seq  uint64

	// Per-bound accounting (folded at obs.MaxTrackedBounds like every other
	// per-bound counter): suppressed counts work items blind expansion would
	// have pushed that the reduction did not, emitted the backtracking items
	// it pushed instead.
	suppressed   [obs.MaxTrackedBounds]atomic.Int64
	emitted      [obs.MaxTrackedBounds]atomic.Int64
	sleepBlocked atomic.Int64
	truncated    atomic.Bool
}

func newBPORState() *bporState {
	return &bporState{seen: make(map[string]bporSeen)}
}

// register records key (if absent) and reports its registration order.
func (b *bporState) register(key string) (seq uint64, isNew bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r, ok := b.seen[key]; ok {
		return r.Seq, false
	}
	b.seq++
	b.seen[key] = bporSeen{Seq: b.seq}
	return b.seq, true
}

// markScanned records that key's backtracking scan is about to run and
// reports whether this call claimed it (false if already scanned). The key
// is registered if it was not yet.
func (b *bporState) markScanned(key string) (seq uint64, claimed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.seen[key]
	if !ok {
		b.seq++
		r = bporSeen{Seq: b.seq}
	}
	if r.Scanned {
		b.seen[key] = r
		return r.Seq, false
	}
	r.Scanned = true
	b.seen[key] = r
	return r.Seq, true
}

// lookup returns key's registration order, if registered.
func (b *bporState) lookup(key string) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.seen[key]
	return r.Seq, ok
}

func (b *bporState) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

func (b *bporState) boundSlot(bound int) int {
	if bound < 0 {
		bound = 0
	}
	if bound >= obs.MaxTrackedBounds {
		b.truncated.Store(true)
		bound = obs.MaxTrackedBounds - 1
	}
	return bound
}

func (b *bporState) noteSuppressed(bound int, n int64) {
	if n > 0 {
		b.suppressed[b.boundSlot(bound)].Add(n)
	}
}

func (b *bporState) noteEmitted(bound int) {
	b.emitted[b.boundSlot(bound)].Add(1)
}

// prunedNet returns one bound's net pruning: suppressed blind pushes minus
// the backtracking items emitted instead, floored at zero.
func (b *bporState) prunedNet(bound int) int64 {
	s := b.boundSlot(bound)
	n := b.suppressed[s].Load() - b.emitted[s].Load()
	if n < 0 {
		return 0
	}
	return n
}

// statsEvent builds the final telemetry event of one exploration.
func (b *bporState) statsEvent(executions int) obs.BPORStatsEvent {
	ev := obs.BPORStatsEvent{
		Executions:   executions,
		SleepBlocked: b.sleepBlocked.Load(),
		SeenSize:     b.size(),
		Truncated:    b.truncated.Load(),
	}
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		sup, em := b.suppressed[i].Load(), b.emitted[i].Load()
		if sup == 0 && em == 0 {
			continue
		}
		pruned := sup - em
		if pruned < 0 {
			pruned = 0
		}
		ev.Suppressed += sup
		ev.Emitted += em
		ev.Pruned += pruned
		ev.Bounds = append(ev.Bounds, obs.BPORBoundStat{
			Bound: i, Suppressed: sup, Emitted: em, Pruned: pruned,
		})
	}
	return ev
}

// netTotal sums prunedNet over all bounds.
func (b *bporState) netTotal() int64 {
	var total int64
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		n := b.suppressed[i].Load() - b.emitted[i].Load()
		if n > 0 {
			total += n
		}
	}
	return total
}

// BPORSeenEntry is one serialized registration of the reduction's
// (prefix, decision) table, for search checkpoints.
type BPORSeenEntry struct {
	// Key is the opaque prefix+decision key.
	Key string `json:"k"`
	// Seq is the registration order (the sleep-set order).
	Seq uint64 `json:"q"`
	// Scanned reports that the decision's backtracking scan has run.
	Scanned bool `json:"s,omitempty"`
}

// export serializes the registration table sorted by key, so identical
// search states serialize to identical bytes.
func (b *bporState) export() []BPORSeenEntry {
	b.mu.Lock()
	out := make([]BPORSeenEntry, 0, len(b.seen))
	for k, r := range b.seen {
		out = append(out, BPORSeenEntry{Key: k, Seq: r.Seq, Scanned: r.Scanned})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// exportCounters serializes the pruning accounting for checkpoints,
// trimming trailing zero bounds.
func (b *bporState) exportCounters() *BPORCounters {
	c := &BPORCounters{SleepBlocked: b.sleepBlocked.Load()}
	top := 0
	for i := 0; i < obs.MaxTrackedBounds; i++ {
		if b.suppressed[i].Load() != 0 || b.emitted[i].Load() != 0 {
			top = i + 1
		}
	}
	for i := 0; i < top; i++ {
		c.Suppressed = append(c.Suppressed, b.suppressed[i].Load())
		c.Emitted = append(c.Emitted, b.emitted[i].Load())
	}
	return c
}

// restoreCounters loads a checkpoint's pruning accounting, so a resumed
// search's pruned totals continue from where the interrupted one stopped.
func (b *bporState) restoreCounters(c *BPORCounters) {
	if c == nil {
		return
	}
	b.sleepBlocked.Store(c.SleepBlocked)
	for i, v := range c.Suppressed {
		if i < obs.MaxTrackedBounds {
			b.suppressed[i].Store(v)
		}
	}
	for i, v := range c.Emitted {
		if i < obs.MaxTrackedBounds {
			b.emitted[i].Store(v)
		}
	}
}

// restore loads a checkpoint's registration table; the sequence counter
// resumes past the highest restored order.
func (b *bporState) restore(entries []BPORSeenEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range entries {
		b.seen[e.Key] = bporSeen{Seq: e.Seq, Scanned: e.Scanned}
		if e.Seq > b.seq {
			b.seq = e.Seq
		}
	}
}

// bporPoint is one recorded thread-scheduling point of the in-flight
// execution: everything the backtracking scan needs to emit a reordering
// work item at this point after a later conflicting step is taken.
type bporPoint struct {
	// curLen is the number of decisions (thread and data) taken before this
	// point: the emitted work item is cur[:curLen] plus the new decision.
	curLen int
	// keyLen is the length of the registration-key prefix at this point.
	keyLen int
	// chosen is the thread scheduled here, chosenOp the operation it
	// executed (its pending op at choice time).
	chosen   sched.TID
	chosenOp sched.Op
	// prev/prevEnabled/preempts reproduce the point's preemption
	// accounting: scheduling t here costs preempts preemptions, plus one
	// when prevEnabled and t != prev.
	prev        sched.TID
	prevEnabled bool
	preempts    int
	// state is the happens-before fingerprint at the point (meaningful only
	// when the work-item cache is on; emissions consult Cache.TryTakeAt
	// with it).
	state uint64
	// enabled/ops copy the point's enabled set and pending operations.
	enabled []sched.TID
	ops     []sched.Op
}

func (p *bporPoint) isEnabled(t sched.TID) bool {
	return p.enabledPos(t) >= 0
}

// enabledPos returns t's index in the point's enabled set, -1 if absent.
func (p *bporPoint) enabledPos(t sched.TID) int {
	for i, u := range p.enabled {
		if u == t {
			return i
		}
	}
	return -1
}

// bporExec is the per-execution state of the reduction, owned by one
// boundController.
type bporExec struct {
	st    *bporState
	bound int
	// sleep maps each sleeping thread to its pending operation at the time
	// it was put to sleep; an executed conflicting operation wakes it.
	sleep map[sched.TID]sched.Op
	// points records every thread-scheduling point of the execution so far
	// (replayed and extended), in order.
	points []bporPoint
	// keyBuf is the incremental registration-key prefix of the current
	// decision sequence (" t0 t1 d0 ..."); a point's prefix is keyBuf up to
	// its keyLen.
	keyBuf  []byte
	scratch []byte
	// pending buffers the backtracking scans' (point, thread) emissions
	// until the execution ends; the flush sorts them into the order plain
	// ICB would have pushed the same seeds (see bporFlush).
	pending []bporPending
}

// bporPending is one buffered backtracking emission: schedule thread t at
// recorded point j.
type bporPending struct {
	j int
	t sched.TID
}

func newBPORExec(st *bporState, bound int) *bporExec {
	return &bporExec{st: st, bound: bound, sleep: make(map[sched.TID]sched.Op)}
}

// key builds the registration key of (prefix up to keyLen, decision d).
func (x *bporExec) key(keyLen int, d sched.Decision) string {
	x.scratch = append(x.scratch[:0], x.keyBuf[:keyLen]...)
	x.scratch = append(x.scratch, '|')
	x.scratch = append(x.scratch, d.String()...)
	return string(x.scratch)
}

// note extends the key prefix with a taken decision; callers invoke it for
// every decision appended to the controller's cur, thread and data alike,
// keeping keyBuf aligned with the decision sequence.
func (x *bporExec) note(d sched.Decision) {
	x.keyBuf = append(x.keyBuf, ' ')
	x.keyBuf = append(x.keyBuf, d.String()...)
}

// asleep reports whether t is sleeping.
func (x *bporExec) asleep(t sched.TID) bool {
	_, ok := x.sleep[t]
	return ok
}

// record appends the current scheduling point (called after the scan, so
// the scan only sees strictly earlier points).
func (x *bporExec) record(info sched.PickInfo, chosen sched.TID, o sched.Op, curLen, preempts int, state uint64) {
	x.points = append(x.points, bporPoint{
		curLen:      curLen,
		keyLen:      len(x.keyBuf),
		chosen:      chosen,
		chosenOp:    o,
		prev:        info.Prev,
		prevEnabled: info.PrevEnabled,
		preempts:    preempts,
		state:       state,
		enabled:     append([]sched.TID(nil), info.Enabled...),
		ops:         append([]sched.Op(nil), info.Ops...),
	})
}

// afterChoice updates the sleep set for an executed operation: the chosen
// thread is no longer covered-elsewhere, and any sleeper whose pending
// operation conflicts with the executed one wakes (the reordering against
// it is a genuinely different trace again).
func (x *bporExec) afterChoice(chosen sched.TID, o sched.Op) {
	delete(x.sleep, chosen)
	for u, uo := range x.sleep {
		if uo.Conflicts(o) {
			delete(x.sleep, u)
		}
	}
}

// pendingOp returns chosen's pending operation at this point.
func pendingOp(info sched.PickInfo, chosen sched.TID) sched.Op {
	return info.Ops[info.EnabledIndex(chosen)]
}

// stateFP returns the current happens-before fingerprint when the
// work-item cache is on (emissions key their cache consult on it).
func (c *boundController) stateFP() uint64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.fp.Fingerprint()
}

// bporQueue buffers the emission "schedule t at recorded point j" for the
// end-of-execution flush. Buffering exists purely for ordering: a scan
// discovers backtrack points grouped by the later conflicting step, but
// plain ICB pushes seeds in path order, and draining the next bound in a
// different order can displace a first sighting to a later execution.
func (c *boundController) bporQueue(j int, t sched.TID) {
	x := c.bpor
	x.pending = append(x.pending, bporPending{j: j, t: t})
}

// bporFlush emits the execution's buffered backtracking items, sorted by
// (point index, position in the point's enabled set) — exactly the order
// plain ICB pushes the same seeds while walking the path. With the queue
// a subsequence of the unreduced one in matching order, a bug's exposing
// item can only move forward, which is what the "BPOR finds the first bug
// with no more executions" pin tests rely on. Registration also happens
// here, not at queue time, so it cannot reorder against the free-point
// sibling pushes that happen live during the execution.
func (c *boundController) bporFlush() {
	x := c.bpor
	if len(x.pending) == 0 {
		return
	}
	sort.SliceStable(x.pending, func(a, b int) bool {
		pa, pb := x.pending[a], x.pending[b]
		if pa.j != pb.j {
			return pa.j < pb.j
		}
		return x.points[pa.j].enabledPos(pa.t) < x.points[pb.j].enabledPos(pb.t)
	})
	for _, pe := range x.pending {
		c.bporEmitAt(&x.points[pe.j], pe.t)
	}
	x.pending = x.pending[:0]
}

// bporEmitAt emits the work item "schedule t at recorded point pt" unless
// it is already registered (taken or enqueued before, anywhere in the
// search) or the work-item cache proves its subtree covered. The item's
// preemption cost routes it: affordable within the current bound goes to
// the local stack, one more goes to the next bound's queue.
func (c *boundController) bporEmitAt(pt *bporPoint, t sched.TID) {
	if t == pt.chosen {
		return
	}
	x := c.bpor
	cost := pt.preempts
	if pt.prevEnabled && t != pt.prev {
		cost++
	}
	if cost > x.bound+1 {
		// Unaffordable even next bound; cannot happen while the execution
		// stays within its bound, kept as a guard.
		return
	}
	if _, isNew := x.st.register(x.key(pt.keyLen, sched.ThreadDecision(t))); !isNew {
		return
	}
	if c.cache != nil && !c.cache.TryTakeAt(pt.state, sched.ThreadDecision(t), cost) {
		return
	}
	alt := c.cur[:pt.curLen].Extend(sched.ThreadDecision(t))
	x.st.noteEmitted(x.bound)
	if cost > x.bound {
		c.onNext(alt)
	} else {
		c.onLocal(alt)
	}
}

// bporBacktrack runs the backtracking scan for a first-executed decision:
// thread p is about to execute operation o, so for every recorded earlier
// step by another thread whose operation conflicts with o, emit the
// reordering at that point (p if enabled there, else every enabled thread
// — the classical fallback when the racer cannot be scheduled directly),
// plus the conservative point preemption bounding requires: every enabled
// thread at the prior context switch (the first point of the conflicting
// step's quantum), where the minimal representative of the reversed trace
// may need to preempt instead.
func (c *boundController) bporBacktrack(p sched.TID, o sched.Op) {
	x := c.bpor
	for j := 0; j < len(x.points); j++ {
		pt := &x.points[j]
		if pt.chosen == p || !pt.chosenOp.Conflicts(o) {
			continue
		}
		if pt.isEnabled(p) {
			c.bporQueue(j, p)
		} else {
			// Classical fallback: the racer cannot be scheduled directly
			// at the conflicting step, so branch over everything enabled.
			for _, u := range pt.enabled {
				c.bporQueue(j, u)
			}
		}
		// Conservative point preemption bounding requires: the minimal
		// representative of the reversed trace may need to start its
		// switch at the prior context switch (the first point of the
		// conflicting step's quantum) instead of preempting here.
		cs := j
		for cs > 0 && x.points[cs-1].chosen == pt.chosen {
			cs--
		}
		for _, u := range x.points[cs].enabled {
			c.bporQueue(cs, u)
		}
	}
}

// bporExpandTruncated blind-expands every recorded scheduling point of a
// truncated execution, exactly as plain ICB would. An assertion failure,
// panic or step limit aborts the run before the remaining threads'
// steps execute, and that breaks the reduction's core argument: a trace
// that differs only in which independent steps squeezed in before the
// abort has a different event set — a distinct class — yet the step that
// would justify its backtrack point never runs in the truncated
// representative, so no conflict scan can ever discover it. Falling back
// to Algorithm 1's blind branching along aborted executions (they are the
// rare case) restores class-for-class parity with the unreduced search
// while keeping the reduction's savings on the completing majority.
func (c *boundController) bporExpandTruncated() {
	x := c.bpor
	for i := range x.points {
		pt := &x.points[i]
		for _, u := range pt.enabled {
			if u != pt.chosen {
				c.bporQueue(i, u)
			}
		}
	}
}

// bporReplayThread handles one replayed thread decision: register it (the
// first execution of an enqueued item runs its backtracking scan here),
// reconstruct the sleep set — every sibling registered before the taken
// decision is covered through an earlier subtree — and advance the sleep
// set past the executed operation. Called with c.spent not yet
// including this decision's own preemption, so recorded costs are exact.
func (c *boundController) bporReplayThread(info sched.PickInfo, chosen sched.TID) {
	x := c.bpor
	o := pendingOp(info, chosen)
	seqTaken, claimed := x.st.markScanned(x.key(len(x.keyBuf), sched.ThreadDecision(chosen)))
	for i, u := range info.Enabled {
		if u == chosen {
			continue
		}
		if s, ok := x.st.lookup(x.key(len(x.keyBuf), sched.ThreadDecision(u))); ok && s < seqTaken {
			x.sleep[u] = info.Ops[i]
		}
	}
	if claimed {
		c.bporBacktrack(chosen, o)
	}
	x.record(info, chosen, o, len(c.cur), c.spent, c.stateFP())
	x.afterChoice(chosen, o)
}

// bporExtendThread handles one extension-phase scheduling point under the
// reduction, replacing the blind branches of Algorithm 1's lines 26-37.
// Returns the scheduled thread, or ok=false to cut the execution (cache
// guard, or every enabled thread asleep).
func (c *boundController) bporExtendThread(info sched.PickInfo) (sched.TID, bool) {
	x := c.bpor
	if info.PrevEnabled {
		// Preemptible point: the running thread continues. Plain ICB would
		// push every other enabled thread into the next bound here; the
		// reduction suppresses that entirely — the backtracking scans of
		// later conflicting steps (re)generate exactly the reorderings that
		// matter, with their conservative companions.
		pick := info.Prev
		o := pendingOp(info, pick)
		_, claimed := x.st.markScanned(x.key(len(x.keyBuf), sched.ThreadDecision(pick)))
		if !c.take(sched.ThreadDecision(pick), c.spent) {
			return sched.NoTID, false
		}
		x.st.noteSuppressed(x.bound, int64(len(info.Enabled)-1))
		if claimed {
			c.bporBacktrack(pick, o)
		}
		x.record(info, pick, o, len(c.cur), c.spent, c.stateFP())
		x.afterChoice(pick, o)
		c.cur = append(c.cur, sched.ThreadDecision(pick))
		x.note(sched.ThreadDecision(pick))
		return pick, true
	}
	// Free point: branch within the bound over the enabled threads that are
	// not asleep. A sleeping thread's first-step subtree is covered through
	// an earlier sibling, so it is neither picked nor pushed.
	pick := sched.NoTID
	for _, u := range info.Enabled {
		if !x.asleep(u) {
			pick = u
			break
		}
	}
	if pick == sched.NoTID {
		// Everything enabled is asleep. The execution itself is redundant
		// (trace-equivalent to ones explored through earlier siblings), but
		// cutting it here would be the classic sleep-set-blocking
		// unsoundness: the unexecuted suffix never runs its conflict scans,
		// so the backtracking items it would have emitted are lost for
		// good. Run the redundant execution to completion instead — its
		// scans keep the reduction's frontier complete — and only suppress
		// the sibling pushes.
		x.st.sleepBlocked.Add(1)
		pick = info.Enabled[0]
	}
	o := pendingOp(info, pick)
	seqTaken, claimed := x.st.markScanned(x.key(len(x.keyBuf), sched.ThreadDecision(pick)))
	if !c.take(sched.ThreadDecision(pick), c.spent) {
		return sched.NoTID, false
	}
	suppressed := 0
	for _, u := range info.Enabled {
		if u == pick {
			continue
		}
		if x.asleep(u) {
			suppressed++
			continue
		}
		key := x.key(len(x.keyBuf), sched.ThreadDecision(u))
		if s, isNew := x.st.register(key); !isNew {
			// Already taken or enqueued elsewhere in the search; siblings
			// registered before the pick sleep in its subtree like they
			// would during replay.
			if s < seqTaken {
				x.sleep[u] = pendingOp(info, u)
			}
			continue
		}
		if c.push(sched.ThreadDecision(u), c.spent) {
			x.st.noteEmitted(x.bound)
			c.onLocal(c.cur.Extend(sched.ThreadDecision(u)))
		}
	}
	x.st.noteSuppressed(x.bound, int64(suppressed))
	if claimed {
		c.bporBacktrack(pick, o)
	}
	x.record(info, pick, o, len(c.cur), c.spent, c.stateFP())
	x.afterChoice(pick, o)
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	x.note(sched.ThreadDecision(pick))
	return pick, true
}
