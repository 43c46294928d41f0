package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/sched"
)

// ParallelICB runs Algorithm 1 on per-worker Chase–Lev work-stealing
// deques with a softened bound barrier. It is the one search driver: ICB
// is its 1-worker case and CSB the same loop under the switch cost. The
// stateless design makes this sound — every work item is a replay schedule
// restartable from the initial state, so items within one bound are
// independent and can be drained in any order, including concurrently.
//
// Scheduling: each worker owns one deque per live bound and drains its own
// bottom LIFO (the sequential search's local-stack order), stealing from
// the top of a sibling's deque when its own runs dry — a steal takes the
// oldest item, the root of the largest remaining subtree. Work-item
// granularity is a single execution, not a whole seed subtree, so load
// imbalance self-corrects at every push. A bound's deques are reversed
// when it becomes current, so its seeds pop in the order they were
// generated.
//
// The softened barrier: a worker that finds nothing at the current bound c
// — its deque empty and nothing to steal — starts replaying bound-(c+1)
// seeds early instead of blocking. Up to three bounds are live at once
// (c's stragglers, c+1 run early, and the c+2 items those early runs
// generate). This preserves the two ICB guarantees:
//
//   - minimal-first sightings: a bug sighted by an early bound-(c+1)
//     execution is held back (Engine.recordBugs) and filed only when every
//     bound-c execution has globally retired — so the reported minimal
//     preemption counts and the bound ordering of first sightings are
//     exactly the sequential search's (at bound granularity: several
//     same-bound bugs may race to be "first", as in any parallel drain);
//   - Theorem 1's coverage meaning: Result.BoundCompleted advances to c
//     only at c's retirement, when every execution with at most c
//     preemptions has run. Early executions never run past the preemption
//     budget (MaxPreemptions), so the explored execution set is identical
//     to the sequential search's.
//
// What is deterministic across worker counts (full drain, no caching): the
// bug set with per-bug minimal preemption counts and sighting counts, the
// bound-ordered bug list, BoundCompleted, Exhausted, total executions, the
// distinct-state and execution-class counts, and the per-bound execution
// attribution in BoundCurve/BoundStats. What is intentionally
// nondeterministic: execution order, the coverage growth curve, per-bound
// state-count samples (early executions bleed into them), which equivalent
// execution claims a work item under state caching (and hence cache
// hit/miss splits and execution counts under caching), and which of
// several same-bound bugs is reported first.
//
// Workers <= 0 selects GOMAXPROCS. Workers == 1 runs the loop inline on
// the calling goroutine with the parent engine as its only worker: no
// goroutines, no parking, the unsharded coverage sets and work-item table.
// Retirement and checkpoints happen between executions, so the current
// bound never runs dry early, bound c+1 never runs ahead, and the drain
// order is exactly Algorithm 1's: seeds FIFO, each seed's local children
// LIFO.
type ParallelICB struct {
	// Workers is the worker-engine count (<= 0: GOMAXPROCS).
	Workers int

	// distribute, when non-nil, overrides the round-robin placement of
	// initial/restored seed i across workers — a test hook for forcing
	// pathological imbalance (steal-storm tests seed everything on one
	// worker). Items generated during the run always land on the
	// generating worker's own deque; stealing corrects the imbalance.
	distribute func(i, workers int) int
}

// NumWorkers returns the resolved worker count.
func (p ParallelICB) NumWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Name implements Strategy. The 1-worker case keeps the canonical "icb"
// name so its results are indistinguishable from ICB's.
func (p ParallelICB) Name() string {
	if w := p.NumWorkers(); w > 1 {
		return fmt.Sprintf("icb-w%d", w)
	}
	return "icb"
}

// Explore implements Strategy.
func (p ParallelICB) Explore(e *Engine) { drive(e, p.NumWorkers(), preemptionCost, p.distribute) }

// driver is the state of one bounded search: the live bound window (the
// deque ring and per-bound counters), the held-back early sightings and,
// with more than one worker, the shared concurrent coverage structures,
// the worker engines and the safepoint coordination.
type driver struct {
	cost  *costModel
	w     int
	place func(i, workers int) int
	met   *obs.Metrics
	prof  *prof.Profiler

	// --- shared structures (more than one worker) ---

	execs   atomic.Int64
	states  *hb.ShardedStateSet
	classes *hb.ShardedStateSet
	table   *sharedTable // nil when state caching is off
	// workers are the worker engines; empty with one worker, where the
	// parent engine runs every execution itself.
	workers []*Engine

	// Per-worker merge cursors: how many Result.Curve points and how much
	// of each Bug's Count have already been folded into the parent at
	// previous safepoints.
	curveDone []int
	bugsDone  [][]int

	// baseHits/baseMisses are the work-item-table counters restored from a
	// resume snapshot; the safepoint merge adds the workers' per-life
	// counts on top (worker counters start at zero every process life).
	baseHits   int
	baseMisses int

	// --- the bound window ---

	// cur is the bound currently retiring. Written only at safepoints (all
	// workers parked or exited, ordered through mu), read freely by
	// running workers in between.
	cur      int
	maxBound int
	// dq[b%3][wi] is worker wi's deque for bound b: three slots cover the
	// live window {cur, cur+1, cur+2} (the softened barrier never lets a
	// worker run more than one bound ahead, and running cur+1 generates at
	// most cur+2). A slot is recycled for bound c+3 at the promotion to
	// c+1, when bound c is fully retired and its slot provably empty.
	dq [3][]*wsDeque
	// pend[b%3] counts bound b's unretired work items, including the ones
	// in flight; a worker pushes an item's children before decrementing
	// its own pend slot, so a decrement to zero at the current bound is
	// exactly its retirement trigger. created[b%3] counts items ever
	// created for bound b (zero means the bound does not exist and the
	// space is exhausted); doneExecs[b%3] counts executions attributed to
	// bound b, which rebuilds the deterministic per-bound execution
	// numbers in BoundCurve/BoundStats that the shared execution counter
	// alone cannot provide once early executions interleave.
	pend, created, doneExecs [3]atomic.Int64
	// cumAttr is the cumulative execution count attributed to retired
	// bounds (updated at safepoints).
	cumAttr int
	// seeds and seedsLeft track the current bound's seed progress for the
	// 1-worker loop: its seeds are the items queued when the bound began,
	// popped in order, each after the previous seed's whole subtree.
	seeds, seedsLeft int

	// held pools early bug sightings drained from the workers, waiting for
	// their bound to retire (workers buffer their own in Engine.held until
	// the next safepoint).
	held []HeldBug

	// --- safepoint coordination (more than one worker) ---

	// Safepoint and idle coordination. parkReq asks every worker to park
	// at its next execution boundary; retireReq tells the parent a current
	// bound hit pend==0 and ckptReq that a periodic checkpoint is due;
	// shutdown ends the search. gen increments whenever new work may have
	// appeared, so idle workers never miss a wakeup: they read gen,
	// advertise idleness, re-sweep every deque, and only then wait for gen
	// to move (a pusher that saw idle>0 bumps gen under mu; one that did
	// not is ordered before the re-sweep).
	mu        sync.Mutex
	cond      *sync.Cond
	gen       uint64
	idle      atomic.Int64
	parkReq   atomic.Bool
	ckptReq   atomic.Bool
	shutdown  atomic.Bool
	retireReq bool
	parked    int
	exited    int
	wg        sync.WaitGroup
}

// drive runs Algorithm 1's bound loop for the parent engine e over w
// workers, pricing decisions with cost. place distributes initial and
// restored seeds across workers (nil: round-robin).
func drive(e *Engine, w int, cost *costModel, place func(i, workers int) int) {
	d := &driver{
		cost:     cost,
		w:        w,
		place:    place,
		met:      e.met,
		prof:     e.prof,
		maxBound: e.opt.MaxPreemptions,
	}
	if d.place == nil {
		d.place = func(i, workers int) int { return i % workers }
	}
	for s := range d.dq {
		d.dq[s] = make([]*wsDeque, w)
		for i := range d.dq[s] {
			d.dq[s][i] = newWSDeque()
		}
	}
	if w > 1 {
		d.share(e)
	}
	if !d.start(e) || d.open(e) {
		return
	}
	if w == 1 {
		d.runInline(e)
		return
	}
	d.runWorkers(e)
}

// start seeds the bound window: the root work item of a fresh search, or
// a resumed snapshot's frontier. It reports false when the snapshot leaves
// nothing to run.
func (d *driver) start(e *Engine) bool {
	st := e.opt.Resume
	if st == nil {
		d.seed(0, []sched.Schedule{nil})
		d.created[0].Store(1)
		return true
	}
	if len(st.SeedQueue) == 0 && len(st.NextWork) == 0 && len(st.NextWork2) == 0 && len(st.Held) == 0 {
		// A final snapshot of a finished search: nothing to do.
		return false
	}
	if d.maxBound >= 0 && st.Bound > d.maxBound {
		// The end-of-budget snapshot: its frontier needs more budget than
		// this search allows, so the restored result is final.
		return false
	}
	done := st.DoneExecs
	if st.Scheduler == "" {
		// Written by the sequential drain, which attributed every
		// execution since the bound began to the bound.
		done = st.Result.Executions - st.BoundStartExecs
	}
	d.cur = st.Bound
	d.seed(d.cur, st.SeedQueue)
	d.seed(d.cur+1, st.NextWork)
	d.seed(d.cur+2, st.NextWork2)
	// One counted execution consumed exactly one work item, so items ever
	// created = items remaining + executions attributed.
	d.created[d.cur%3].Store(int64(len(st.SeedQueue) + done))
	d.created[(d.cur+1)%3].Store(int64(len(st.NextWork) + st.EarlyExecs))
	d.created[(d.cur+2)%3].Store(int64(len(st.NextWork2)))
	d.doneExecs[d.cur%3].Store(int64(done))
	d.doneExecs[(d.cur+1)%3].Store(int64(st.EarlyExecs))
	d.cumAttr = st.BoundStartExecs
	d.held = append(d.held, st.Held...)
	return true
}

// seed queues items for bound b. The current bound's items are listed in
// drain order and pushed so that their owners pop them in that order; a
// later bound's are listed in generation order, which its deques keep
// until promote reverses them.
func (d *driver) seed(b int, items []sched.Schedule) {
	slot := b % 3
	for k := range items {
		i := k
		if b == d.cur {
			i = len(items) - 1 - k
		}
		wi := d.place(i, d.w)
		if wi < 0 || wi >= d.w {
			wi = 0
		}
		d.dq[slot][wi].push(items[i])
	}
	d.pend[slot].Add(int64(len(items)))
}

// open begins the first bound of this process life, retiring first any
// bound a restored frontier had already drained (a stop can land between
// a bound's last execution and its retirement). Reports true when the
// search is already over.
func (d *driver) open(e *Engine) bool {
	if d.pend[d.cur%3].Load() == 0 {
		return d.safepoint(e, false)
	}
	d.begin(e)
	return false
}

// share converts the parent engine to shared concurrent coverage
// structures and builds the worker engines around them. A parent restored
// from a resume snapshot (NewEngine imported it into the sequential
// structures) has its coverage sets, work-item table and execution count
// migrated into the shared concurrent ones.
func (d *driver) share(parent *Engine) {
	d.cond = sync.NewCond(&d.mu)
	// The search-wide abort flag every worker shares: the parent's
	// external flag (Options.Stop, signal handling) when one was provided,
	// a private one otherwise.
	if parent.stop == nil {
		parent.stop = new(atomic.Bool)
	}
	d.states = hb.NewShardedStateSet()
	d.classes = hb.NewShardedStateSet()
	for _, s := range parent.states.Elems() {
		d.states.Add(s)
	}
	for _, s := range parent.classes.Elems() {
		d.classes.Add(s)
	}
	d.execs.Store(int64(parent.res.Executions))
	// The parent runs no executions itself; it reads the shared sets at
	// safepoints so coverage counters in bound events and BoundStats
	// reflect all workers.
	parent.states = d.states
	parent.classes = d.classes
	if parent.opt.StateCache {
		d.table = newSharedTable()
		for k := range parent.cache.table {
			d.table.tryInsert(k, nil)
		}
		d.baseHits = parent.cache.hits
		d.baseMisses = parent.cache.misses
	}
	d.curveDone = make([]int, d.w)
	d.bugsDone = make([][]int, d.w)
	for i := 0; i < d.w; i++ {
		d.workers = append(d.workers, newWorkerEngine(parent, i, d))
	}
}

// newWorkerEngine builds one worker: a full Engine with private
// fingerprinter, race detector, observer slice and statistics, wired to
// the search-wide shared structures. Telemetry objects (sink, metrics,
// estimator, coverage recorder, trace observer) are shared as-is — every
// implementation in package obs serializes internally.
func newWorkerEngine(parent *Engine, worker int, d *driver) *Engine {
	e := &Engine{
		prog:        parent.prog,
		opt:         parent.opt,
		states:      d.states,
		classes:     d.classes,
		sink:        parent.sink,
		met:         parent.met,
		est:         parent.est,
		curBound:    -1,
		worker:      worker,
		stop:        parent.stop,
		sharedExecs: &d.execs,
		prof:        parent.prof,
		// The BPOR registration table is search-global like the work-item
		// table: workers share the parent's (its own mutex serializes them).
		// Registration order then depends on worker interleaving, so — as
		// with caching — execution counts under the reduction vary across
		// runs while the bug set, BoundCompleted and the class counts do not.
		bpor: parent.bpor,
	}
	// Batched state-set probes: fingerprints accumulate in a per-worker
	// buffer and flush a whole quantum per shard-lock acquire, instead of
	// one lock round-trip per probe. Flushed at every execution end and
	// before parking, so set counts are exact at every safepoint.
	var sc hb.Contention
	if e.prof != nil {
		sc = e.prof.Locks(worker, prof.LockStateSet)
	}
	e.probes = hb.NewProbeBuffer(d.states, sc, hb.DefaultProbeQuantum)
	pb := e.probes
	e.fp = hb.NewFingerprinter(func(s uint64) { pb.Probe(s) })
	if e.opt.StateCache {
		e.cache = &Cache{fp: e.fp, shared: d.table, sink: e.sink, met: e.met}
		if e.prof != nil {
			e.cache.lockWait = e.prof.Locks(worker, prof.LockWorkTable)
		}
	}
	e.initExec()
	e.res.BoundCompleted = -1
	return e
}

// runInline is the 1-worker loop: the parent engine drains the bound
// window on the calling goroutine and calls the safepoint inline — after
// the current bound's last item, when a periodic checkpoint is due, and
// when the search must stop.
func (d *driver) runInline(e *Engine) {
	for {
		if stop, due := e.Done(), e.checkpointDue(); stop || due {
			if d.safepoint(e, due) {
				return
			}
		}
		item, b, ok := d.findWork(0)
		if !ok {
			panic("core: the current bound has pending work but an empty deque")
		}
		if n := d.dq[b%3][0].size(); n < d.seedsLeft {
			// A seed: everything queued above it (its predecessors'
			// subtrees) has drained.
			d.seedsLeft = n
			e.NoteWork(d.seeds-n-1, d.seeds)
			e.NoteFrontier(n + int(d.pend[(b+1)%3].Load()))
		}
		if d.runItem(0, e, item, b) == 0 && d.safepoint(e, false) {
			return
		}
	}
}

// runWorkers spawns the worker goroutines and serves their safepoint
// requests until the search is over. Spawned once for the whole search,
// not per bound.
func (d *driver) runWorkers(e *Engine) {
	d.wg.Add(d.w)
	for wi := range d.workers {
		go d.workerLoop(wi, d.workers[wi])
	}
	for {
		d.mu.Lock()
		for !d.retireReq && !d.ckptReq.Load() && d.exited < d.w {
			d.cond.Wait()
		}
		d.retireReq = false
		d.parkReq.Store(true)
		d.cond.Broadcast()
		for d.parked+d.exited < d.w {
			d.cond.Wait()
		}
		d.mu.Unlock()
		// Every worker is quiescent (parked in cond.Wait or exited) and has
		// flushed its probe buffer: the parent owns all shared state.
		done := d.safepoint(e, d.ckptReq.Load())
		d.mu.Lock()
		d.ckptReq.Store(false)
		if done {
			d.shutdown.Store(true)
		}
		d.parkReq.Store(false)
		d.gen++
		d.cond.Broadcast()
		d.mu.Unlock()
		if done {
			d.wg.Wait()
			return
		}
	}
}

// workerLoop is one worker goroutine: pop/steal/run until told to park,
// stop, or shut down.
func (d *driver) workerLoop(wi int, we *Engine) {
	defer func() {
		we.flushProbes()
		d.mu.Lock()
		d.exited++
		d.cond.Broadcast()
		d.mu.Unlock()
		d.wg.Done()
	}()
	for {
		if we.Done() || d.shutdown.Load() {
			return
		}
		if d.parkReq.Load() {
			if !d.park(wi, we) {
				return
			}
			continue
		}
		if we.checkpointDue() && !d.ckptReq.Swap(true) {
			// Summon a safepoint for the periodic snapshot.
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		}
		item, b, ok := d.findWork(wi)
		if !ok {
			if !d.idleWait(wi, we) {
				return
			}
			continue
		}
		d.work(wi, we, item, b)
	}
}

// park blocks at a safepoint until the parent finishes it. Reports false
// when the search shut down while parked.
func (d *driver) park(wi int, we *Engine) bool {
	we.flushProbes()
	var t0 time.Time
	if d.prof != nil {
		t0 = time.Now()
	}
	d.mu.Lock()
	d.parked++
	d.cond.Broadcast()
	for d.parkReq.Load() && !d.shutdown.Load() {
		d.cond.Wait()
	}
	d.parked--
	d.mu.Unlock()
	if d.prof != nil {
		d.prof.NoteBarrierWait(wi, time.Since(t0).Nanoseconds())
	}
	return !d.shutdown.Load()
}

// idleWait blocks until new work may exist. The lost-wakeup-free protocol:
// snapshot gen, advertise idleness, re-sweep every deque, and only then
// wait for gen to move — a pusher either saw the idle advertisement (and
// bumps gen) or pushed before it (and the re-sweep finds the item).
// Reports false when the search shut down.
func (d *driver) idleWait(wi int, we *Engine) bool {
	we.flushProbes()
	d.mu.Lock()
	g := d.gen
	d.mu.Unlock()
	d.idle.Add(1)
	if item, b, ok := d.findWork(wi); ok {
		d.idle.Add(-1)
		d.work(wi, we, item, b)
		return true
	}
	var t0 time.Time
	if d.prof != nil {
		t0 = time.Now()
	}
	d.mu.Lock()
	for d.gen == g && !d.parkReq.Load() && !d.shutdown.Load() && !we.Done() {
		d.cond.Wait()
	}
	d.mu.Unlock()
	d.idle.Add(-1)
	if d.prof != nil {
		d.prof.NoteIdle(wi, time.Since(t0).Nanoseconds())
	}
	return !d.shutdown.Load()
}

// findWork returns the next item for worker wi and the bound it belongs
// to: own deque first (LIFO), then a steal sweep over the siblings' —
// at the current bound, then (softened barrier) one bound ahead.
func (d *driver) findWork(wi int) (sched.Schedule, int, bool) {
	cur := d.cur
	if s, ok := d.takeAt(cur, wi); ok {
		return s, cur, true
	}
	// Nothing left to run or steal at the current bound: run the next
	// bound early — unless it exceeds the preemption budget, where running
	// it would change the explored execution set vs the sequential drain.
	if d.maxBound < 0 || cur+1 <= d.maxBound {
		if s, ok := d.takeAt(cur+1, wi); ok {
			return s, cur + 1, true
		}
	}
	if d.prof != nil {
		d.prof.NoteFetchStall(wi)
	}
	return nil, 0, false
}

// takeAt pops wi's own deque for bound b, falling back to a round-robin
// steal sweep over the siblings'.
func (d *driver) takeAt(b, wi int) (sched.Schedule, bool) {
	slot := b % 3
	if s, ok := d.dq[slot][wi].pop(); ok {
		return s, true
	}
	for k := 1; k < d.w; k++ {
		v := wi + k
		if v >= d.w {
			v -= d.w
		}
		if s, ok := d.dq[slot][v].steal(); ok {
			if d.prof != nil {
				d.prof.NoteSteal(wi, true)
			}
			if d.met != nil {
				d.met.ObserveWorkerSteal(wi)
			}
			return s, true
		}
	}
	if d.prof != nil {
		d.prof.NoteSteal(wi, false)
	}
	return nil, false
}

// pushItem files a new work item for bound b on worker wi's deque and
// wakes an idle sibling to steal it.
func (d *driver) pushItem(wi, b int, s sched.Schedule) {
	slot := b % 3
	d.created[slot].Add(1)
	d.pend[slot].Add(1)
	d.dq[slot][wi].push(s)
	if d.idle.Load() > 0 {
		d.mu.Lock()
		d.gen++
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// runItem replays one work item at bound b: one execution, its generated
// alternatives pushed onto wi's own deques, then retirement accounting.
// Returns bound b's unretired item count after this one, or -1 when the
// engine was already stopping and never ran the item.
func (d *driver) runItem(wi int, we *Engine, item sched.Schedule, b int) int64 {
	we.curBound = b
	we.early = b != d.cur
	ctrl := newBoundController(we, d.cost, item, b,
		func(alt sched.Schedule) { d.pushItem(wi, b, alt) },
		func(alt sched.Schedule) { d.pushItem(wi, b+1, alt) })
	before := we.Executions()
	out, done := we.RunExecution(ctrl)
	if done && we.Executions() == before {
		// An external stop can land between the boundary check and the
		// run; put the item back (no pend accounting — its slot was never
		// released) so the stop checkpoint does not lose its subtree.
		d.dq[b%3][wi].push(item)
		we.flushProbes()
		return -1
	}
	if done {
		// Ran to completion before the stop landed: flush BPOR's buffered
		// backtracking items so the checkpoint frontier is complete.
		if ctrl.bpor != nil {
			ctrl.bporFlush()
		}
	} else {
		finishItem(ctrl, out, b)
	}
	d.doneExecs[b%3].Add(1)
	we.flushProbes()
	return d.pend[b%3].Add(-1)
}

// work runs one item on a worker goroutine, reports its progress, and
// summons the safepoint when it was the current bound's last.
func (d *driver) work(wi int, we *Engine, item sched.Schedule, b int) {
	left := d.runItem(wi, we, item, b)
	if left < 0 {
		return
	}
	total := int(d.created[b%3].Load())
	we.NoteWork(total-int(left), total)
	we.NoteFrontier(d.frontierSize())
	if left == 0 && b == d.cur {
		d.mu.Lock()
		d.retireReq = true
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// frontierSize is the queued-item count across the live bound window
// (excluding the caller's in-flight item).
func (d *driver) frontierSize() int {
	n := int(d.pend[0].Load()+d.pend[1].Load()+d.pend[2].Load()) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// snapshotSlot copies bound b's queued items without consuming them, in
// the order seed takes them back: drain order for the current bound,
// generation order for a later one. Safepoint only.
func (d *driver) snapshotSlot(b int) []sched.Schedule {
	var out []sched.Schedule
	for _, q := range d.dq[b%3] {
		items := q.snapshotQuiesced()
		if b == d.cur {
			slices.Reverse(items)
		}
		out = append(out, items...)
	}
	return out
}

// drainHeld moves every worker's held-sighting buffer into the parent
// pool. Safepoint only.
func (d *driver) drainHeld() {
	for _, we := range d.workers {
		d.held = append(d.held, we.held...)
		we.held = nil
		we.heldSeen = nil
	}
}

// popDue removes and returns the held sightings whose bound is now
// retiring (Bound <= bound); later bounds stay pooled.
func (d *driver) popDue(bound int) []HeldBug {
	var due []HeldBug
	rest := d.held[:0]
	for _, h := range d.held {
		if h.Bound <= bound {
			due = append(due, h)
		} else {
			rest = append(rest, h)
		}
	}
	d.held = rest
	return due
}

// hasDue reports whether any held sighting is at or below bound.
func (d *driver) hasDue(bound int) bool {
	for _, h := range d.held {
		if h.Bound <= bound {
			return true
		}
	}
	return false
}

// safepoint runs with every worker quiescent, or inline between two
// executions of the 1-worker loop: drain held sightings, merge worker
// deltas (jointly with the retiring bound's due held bugs, so the bound's
// bug-list order is deterministic), then capture the final snapshot of a
// stopping search, retire and promote a drained bound, or take the
// periodic snapshot ckpt asks for. Returns true when the search is over.
func (d *driver) safepoint(e *Engine, ckpt bool) bool {
	d.drainHeld()
	var due []HeldBug
	if d.pend[d.cur%3].Load() == 0 {
		due = d.popDue(d.cur)
	}
	d.mergeInto(e, due)
	if e.Done() {
		d.capture(e, true)
		return true
	}
	if d.pend[d.cur%3].Load() == 0 {
		return d.retireAndPromote(e)
	}
	if ckpt {
		d.capture(e, false)
	}
	return false
}

// retireAndPromote retires every fully-drained bound (several in a row
// when early execution consumed a whole bound before it became current),
// then begins the next bound with pending work. The caller already merged
// the first retiring bound's due held sightings.
func (d *driver) retireAndPromote(e *Engine) bool {
	merged := true
	for d.pend[d.cur%3].Load() == 0 {
		c := d.cur
		if !merged {
			d.mergeInto(e, d.popDue(c))
			if e.Done() {
				d.capture(e, true)
				return true
			}
		}
		merged = false
		// Deterministic per-bound attribution: doneExecs counted bound-c
		// executions wherever they ran (current or early), so the
		// BoundCurve/BoundStats execution columns match the sequential
		// drain's exactly; their state columns keep the shared set's
		// current size, which early executions bleed into.
		attr := int(d.doneExecs[c%3].Swap(0))
		d.cumAttr += attr
		total := int(d.created[c%3].Load())
		e.NoteWork(total, total)
		e.NoteFrontier(int(d.pend[(c+1)%3].Load() + d.pend[(c+2)%3].Load()))
		// Anchor the per-bound baseline so CompleteBound (BoundStat, the
		// profiler's redundancy row) counts exactly the executions
		// attributed to this bound, not everything since the last barrier.
		e.restoreBoundBaseline(e.res.Executions - attr)
		e.SetBoundCompleted(c)
		if n := len(e.res.BoundCurve); n > 0 {
			e.res.BoundCurve[n-1].Executions = d.cumAttr
		}
		if n := len(e.res.BoundStats); n > 0 {
			e.res.BoundStats[n-1].Executions = attr
			e.res.BoundStats[n-1].CumExecutions = d.cumAttr
		}
		e.restoreBoundBaseline(d.cumAttr)
		if d.created[(c+1)%3].Load() == 0 {
			e.MarkExhausted()
			d.capture(e, true)
			return true
		}
		d.promote()
		if d.maxBound >= 0 && c >= d.maxBound {
			// Budget reached with work deferred: the final snapshot carries
			// the next bound's remaining queue (early consumption of it was
			// gated off), so a resume with a higher bound can continue.
			d.capture(e, true)
			return true
		}
		if e.opt.StopOnFirstBug && d.hasDue(d.cur) {
			// Held sightings at the new bound are minimal now that every
			// lower bound has retired: file them and stop without running
			// the bound's queue — the sequential search would have stopped
			// at its first sighting inside this bound too.
			d.mergeInto(e, d.popDue(d.cur))
			d.capture(e, true)
			return true
		}
	}
	d.begin(e)
	return false
}

// promote makes the next bound current: its deques are reversed so their
// owners pop its seeds in generation order, and the retired bound's slot
// is recycled for cur+2 before any worker can push to it (they are all
// parked).
func (d *driver) promote() {
	d.cur++
	for _, q := range d.dq[d.cur%3] {
		q.reverseQuiesced()
	}
	d.created[(d.cur+2)%3].Store(0)
	d.doneExecs[(d.cur+2)%3].Store(0)
}

// begin opens the current bound: its telemetry, the per-bound baseline,
// the 1-worker seed progress, and a bound-barrier snapshot, so a crash
// never loses more than the live window's progress.
func (d *driver) begin(e *Engine) {
	n := int(d.pend[d.cur%3].Load())
	e.BeginBound(d.cur, n)
	e.restoreBoundBaseline(d.cumAttr)
	d.seeds, d.seedsLeft = n, n
	d.capture(e, false)
}

// capture hands the checkpoint sink the exact frontier at a safepoint: the
// live window's queued items, the per-bound attribution counters and the
// still-held early sightings (deliberately absent from Result.Bugs — they
// are unconfirmed-minimal; a resume files them when their bound retires).
func (d *driver) capture(e *Engine, final bool) {
	if e.opt.Checkpoint == nil {
		return
	}
	st := e.exportState()
	st.Bound = d.cur
	st.BoundStartExecs = d.cumAttr
	st.SeedQueue = d.snapshotSlot(d.cur)
	st.NextWork = d.snapshotSlot(d.cur + 1)
	st.NextWork2 = d.snapshotSlot(d.cur + 2)
	if len(d.held) > 0 {
		st.Held = append([]HeldBug(nil), d.held...)
	}
	st.DoneExecs = int(d.doneExecs[d.cur%3].Load())
	st.EarlyExecs = int(d.doneExecs[(d.cur+1)%3].Load())
	e.captureState(st, final)
}

// sighting is one first sighting a safepoint files: a worker's fresh bug
// or a released held one.
type sighting struct {
	bug  Bug
	held bool
}

// mergeInto folds the workers' results into the parent engine at a
// safepoint and files the first sightings released there. due carries
// the retiring bound's released held sightings; they are sorted together
// with the workers' fresh sightings (deduplicated by kind+message), so a
// full drain reports an identical, deterministically ordered bug list for
// every worker count. It also propagates stopping.
func (d *driver) mergeInto(e *Engine, due []HeldBug) {
	var fresh []sighting
	if len(d.workers) > 0 {
		fresh = d.mergeWorkers(e)
	}
	for _, h := range due {
		fresh = append(fresh, sighting{bug: h.Bug, held: true})
	}

	// First sightings released this safepoint, ordered by (kind, message)
	// so a full drain reports an identical bug list for every worker
	// count. Workers may have sighted the same defect independently (or
	// both early and normally) before the merge could dedup it; fold those
	// duplicates' counts together. Held sightings emit their telemetry
	// here — their workers deliberately stayed silent.
	sort.Slice(fresh, func(i, j int) bool {
		a, b := &fresh[i].bug, &fresh[j].bug
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Message < b.Message
	})
	for _, s := range fresh {
		k := bugKey{kind: s.bug.Kind, msg: s.bug.Message}
		if e.bugSeen == nil {
			e.bugSeen = make(map[bugKey]int)
		}
		if pi, seen := e.bugSeen[k]; seen {
			e.res.Bugs[pi].Count += s.bug.Count
			continue
		}
		e.bugSeen[k] = len(e.res.Bugs)
		e.res.Bugs = append(e.res.Bugs, s.bug)
		if s.held {
			if e.met != nil {
				e.met.Bugs.Add(1)
			}
			if e.prof != nil {
				e.prof.NoteFirstBug(s.bug.Kind.String(), s.bug.Message, s.bug.Execution, s.bug.Preemptions)
			}
			if e.sink != nil {
				e.sink.BugFound(obs.BugEvent{
					Kind:        s.bug.Kind.String(),
					Message:     s.bug.Message,
					Preemptions: s.bug.Preemptions,
					Execution:   s.bug.Execution,
					Schedule:    s.bug.Schedule.String(),
					Steps:       s.bug.Steps,
				})
			}
		}
	}
	if len(due) > 0 && e.opt.StopOnFirstBug {
		// A released held sighting is a real sighting: the sequential
		// search would have stopped at it (its bound is now fully
		// retired, so it is minimal).
		e.halt()
	}
}

// mergeWorkers folds the worker engines' deltas since the last safepoint
// into the parent: cumulative executions, per-execution maxima, new
// coverage-curve points (sorted by global execution index), count bumps
// for already-filed bugs, work-item-table totals and stopping. It returns
// the workers' new first sightings for mergeInto to file.
func (d *driver) mergeWorkers(e *Engine) []sighting {
	e.res.Executions = int(d.execs.Load())

	var newPoints []CoveragePoint
	var fresh []sighting
	for wi, we := range d.workers {
		if we.done {
			e.done = true
		}
		if we.res.MaxSteps > e.res.MaxSteps {
			e.res.MaxSteps = we.res.MaxSteps
		}
		if we.res.MaxBlocking > e.res.MaxBlocking {
			e.res.MaxBlocking = we.res.MaxBlocking
		}
		if we.res.MaxPreemptions > e.res.MaxPreemptions {
			e.res.MaxPreemptions = we.res.MaxPreemptions
		}
		newPoints = append(newPoints, we.res.Curve[d.curveDone[wi]:]...)
		d.curveDone[wi] = len(we.res.Curve)

		for bi := range we.res.Bugs {
			wb := &we.res.Bugs[bi]
			merged := 0
			if bi < len(d.bugsDone[wi]) {
				merged = d.bugsDone[wi][bi]
			} else {
				d.bugsDone[wi] = append(d.bugsDone[wi], 0)
			}
			if delta := wb.Count - merged; delta > 0 {
				k := bugKey{kind: wb.Kind, msg: wb.Message}
				if pi, seen := e.bugSeen[k]; seen {
					e.res.Bugs[pi].Count += delta
				} else {
					b := *wb
					b.Count = delta
					fresh = append(fresh, sighting{bug: b})
				}
				d.bugsDone[wi][bi] = wb.Count
			}
		}
	}

	sort.Slice(newPoints, func(i, j int) bool { return newPoints[i].Executions < newPoints[j].Executions })
	e.res.Curve = append(e.res.Curve, newPoints...)

	// Work-item-table totals: the parent's Cache reports the summed
	// per-worker counters (the table itself is shared, so Size is global).
	if e.cache != nil {
		hits, misses := 0, 0
		for _, we := range d.workers {
			hits += we.cache.hits
			misses += we.cache.misses
		}
		e.cache.hits, e.cache.misses = d.baseHits+hits, d.baseMisses+misses
		e.cache.shared = d.table
	}
	return fresh
}
