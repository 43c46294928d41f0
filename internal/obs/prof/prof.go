// Package prof is the search profiler: atomic counters answering "where
// does the search budget go?" for one exploration (or a whole campaign of
// them). It measures four things the roadmap's open items stall on:
//
//   - Phase timing: how each execution's wall clock splits between
//     replaying the seed-schedule prefix and exploring past it, plus the
//     sampled sub-costs of HB fingerprinting, race detection, and
//     work-item-table probes.
//   - Contention: per-worker lock-wait time on the sharded state set and
//     shared work-item table, barrier-wait time at bound synchronization,
//     and work-fetch stalls — the measured costs the next parallel-scaling
//     change should attack.
//   - Redundancy: per bound, executions versus distinct HB execution
//     classes reached — the Mazurkiewicz-redundant fraction that is the
//     executions-saved denominator any partial-order-reduction layer will
//     be judged against.
//   - Time-to-first-bug: wall clock, execution index, and bound at each
//     distinct defect's first sighting — the metric heuristic frontier
//     ordering will optimize.
//
// The overhead budget is <5% with the profiler attached. Three design
// rules keep it there: the per-execution path takes two clock readings
// total (execution start, replay/explore split) and a handful of atomic
// adds; the expensive per-step phases are only timed on one execution in
// SampleEvery; and lock-wait measurement uses a TryLock fast path so an
// uncontended acquire costs no clock reading at all — only acquires that
// found the lock held are counted and timed, which also makes the wait
// count itself the contention analogue of a CAS-retry counter.
//
// All counters are independent atomics; a snapshot (Profile) is internally
// consistent per counter but not a cross-counter atomic cut, which is fine
// for a monotone profile. The struct must not be copied after first use.
package prof

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/obs"
)

// Capacity caps, mirroring obs.MaxTrackedBounds/MaxTrackedWorkers:
// observations beyond a cap fold into the last slot (bounds, workers) or
// are dropped (first bugs), and the snapshot's Truncated flag reports it.
const (
	maxBounds  = obs.MaxTrackedBounds
	maxWorkers = obs.MaxTrackedWorkers
	// maxFirstBugs caps the distinct defects tracked; campaigns sharing
	// one profiler across thousands of generated programs hit this, a
	// single benchmark never does.
	maxFirstBugs = 256
)

// The timing phases, indexed into the per-phase counter arrays. Order
// matches the obs.Phase* rendering order.
const (
	phaseReplay = iota
	phaseExplore
	phaseFingerprint
	phaseRace
	phaseCacheProbe
	numPhases
)

var phaseNames = [numPhases]string{
	obs.PhaseReplay, obs.PhaseExplore, obs.PhaseFingerprint, obs.PhaseRace, obs.PhaseCacheProbe,
}

// sampledPhase reports whether a phase is measured on sampled executions
// only (scale by SampleEvery to estimate full cost).
func sampledPhase(p int) bool { return p >= phaseFingerprint }

// numBuckets covers log2(ns) observations up to ~2^47 ns (≈39 hours per
// observation, far beyond any single execution).
const numBuckets = 48

// DefaultSampleEvery is the sampling period of the per-step phases when
// the caller does not choose one: the sampled observers run on one
// execution in thirty-two.
const DefaultSampleEvery = 32

// workerCounters is one worker's contention slot, padded to its own cache
// line so concurrent workers do not false-share.
type workerCounters struct {
	stateWaits  atomic.Int64
	stateWaitNS atomic.Int64
	tableWaits  atomic.Int64
	tableWaitNS atomic.Int64
	barrierNS   atomic.Int64
	fetchStalls atomic.Int64
	steals      atomic.Int64
	stealFails  atomic.Int64
	idleNS      atomic.Int64
	_           [56]byte
}

func (w *workerCounters) seen() bool {
	return w.stateWaits.Load() != 0 || w.tableWaits.Load() != 0 ||
		w.barrierNS.Load() != 0 || w.fetchStalls.Load() != 0 ||
		w.steals.Load() != 0 || w.stealFails.Load() != 0 ||
		w.idleNS.Load() != 0
}

// Profiler accumulates search-profile observations. The zero value is not
// usable; construct with New. One Profiler may be shared by all workers of
// a parallel search and by many sequential explorations of a campaign.
type Profiler struct {
	sampleEvery int

	// startNS is the profiler's epoch (unix ns), set once by the first
	// Begin; time-to-first-bug is measured from it.
	startNS atomic.Int64

	// Whole-search phase aggregates and log2(ns) histograms.
	phaseNS    [numPhases]atomic.Int64
	phaseCount [numPhases]atomic.Int64
	hist       [numPhases][numBuckets]atomic.Int64

	// Per-bound attribution: phase time, and the redundancy accounting
	// fed by NoteBound at bound completion (or partial flush).
	boundPhaseNS [maxBounds][numPhases]atomic.Int64
	boundExecs   [maxBounds]atomic.Int64
	boundClasses [maxBounds]atomic.Int64
	boundDurNS   [maxBounds]atomic.Int64
	boundPruned  [maxBounds]atomic.Int64

	workers [maxWorkers]workerCounters

	truncated atomic.Bool

	// First-sighting records, guarded by mu: bug discovery is rare and
	// already serialized per engine, so a mutex is fine here.
	mu        sync.Mutex
	firstBugs []obs.ProfileFirstBug
	bugSeen   map[bugKey]struct{}
}

type bugKey struct{ kind, msg string }

// New returns a Profiler sampling the per-step phases on one execution in
// sampleEvery (DefaultSampleEvery when <= 0; 1 samples every execution).
func New(sampleEvery int) *Profiler {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	return &Profiler{sampleEvery: sampleEvery, bugSeen: make(map[bugKey]struct{})}
}

// SampleEvery returns the sampling period of the per-step phases.
func (p *Profiler) SampleEvery() int { return p.sampleEvery }

// Begin starts the profiler's wall clock if it has not started yet. The
// engine calls it at exploration start; only the first call of a shared
// profiler's lifetime takes effect, so campaign-wide time-to-first-bug
// stays anchored to the campaign start.
func (p *Profiler) Begin() {
	p.startNS.CompareAndSwap(0, time.Now().UnixNano())
}

// Sampled reports whether the n-th execution (1-based, per worker) should
// run with the sampled per-step observers attached.
func (p *Profiler) Sampled(n int) bool { return n%p.sampleEvery == 0 }

func boundSlot(bound int, trunc *atomic.Bool) int {
	if bound < 0 {
		bound = 0
	}
	if bound >= maxBounds {
		trunc.Store(true)
		bound = maxBounds - 1
	}
	return bound
}

// observe adds one observation to a phase's totals, histogram, and bound
// attribution. Negative durations (clock retrogression) are dropped.
func (p *Profiler) observe(phase, bound int, ns int64) {
	if ns < 0 {
		return
	}
	p.phaseNS[phase].Add(ns)
	p.phaseCount[phase].Add(1)
	p.hist[phase][bits.Len64(uint64(ns))].Add(1)
	p.boundPhaseNS[boundSlot(bound, &p.truncated)][phase].Add(ns)
}

// ObserveExec records one execution's replay/explore wall-clock split at
// the given bound. Called once per execution; this is the profiler's hot
// path.
func (p *Profiler) ObserveExec(bound int, replayNS, exploreNS int64) {
	p.observe(phaseReplay, bound, replayNS)
	p.observe(phaseExplore, bound, exploreNS)
}

// ObserveSampled records the per-step sub-costs of one sampled execution:
// HB fingerprinting (including state-set insertion), race detection, and
// work-item-table probes.
func (p *Profiler) ObserveSampled(bound int, fpNS, raceNS, cacheNS int64) {
	p.observe(phaseFingerprint, bound, fpNS)
	p.observe(phaseRace, bound, raceNS)
	p.observe(phaseCacheProbe, bound, cacheNS)
}

// NoteBound records one bound's redundancy accounting: execs executions
// were spent while the bound was drained and they reached newClasses
// previously unseen HB execution classes, in durNS of wall clock. Called
// at bound completion; partially drained bounds (budget cut, first-bug
// stop) flush once at search end.
func (p *Profiler) NoteBound(bound int, execs, newClasses, durNS int64) {
	s := boundSlot(bound, &p.truncated)
	p.boundExecs[s].Add(execs)
	p.boundClasses[s].Add(newClasses)
	p.boundDurNS[s].Add(durNS)
}

// NotePruned records work items the partial-order-reduction layer
// net-pruned at a bound (suppressed blind pushes minus emitted targeted
// backtracking items). Called alongside NoteBound; it feeds the snapshot's
// RedundantFracFull so the redundancy the reduction removed stays visible
// next to the redundancy that remains.
func (p *Profiler) NotePruned(bound int, n int64) {
	if n > 0 {
		p.boundPruned[boundSlot(bound, &p.truncated)].Add(n)
	}
}

// NoteFirstBug records a defect's first sighting. Duplicate (kind,
// message) pairs are ignored, mirroring the engine's own deduplication, so
// a shared profiler keeps the first sighting across a whole campaign.
func (p *Profiler) NoteFirstBug(kind, message string, execution, bound int) {
	now := time.Now().UnixNano()
	p.mu.Lock()
	defer p.mu.Unlock()
	k := bugKey{kind, message}
	if _, dup := p.bugSeen[k]; dup {
		return
	}
	if len(p.firstBugs) >= maxFirstBugs {
		p.truncated.Store(true)
		return
	}
	p.bugSeen[k] = struct{}{}
	start := p.startNS.Load()
	if start == 0 {
		start = now
	}
	p.firstBugs = append(p.firstBugs, obs.ProfileFirstBug{
		Kind:      kind,
		Message:   message,
		Execution: execution,
		Bound:     bound,
		TNS:       now - start,
	})
}

func workerSlot(worker int, trunc *atomic.Bool) int {
	if worker < 0 {
		worker = 0
	}
	if worker >= maxWorkers {
		trunc.Store(true)
		worker = maxWorkers - 1
	}
	return worker
}

// NoteBarrierWait adds barrier-idle nanoseconds for one worker: the time
// between the worker finishing its share of a bound and the slowest
// worker of that bound arriving.
func (p *Profiler) NoteBarrierWait(worker int, ns int64) {
	if ns < 0 {
		return
	}
	p.workers[workerSlot(worker, &p.truncated)].barrierNS.Add(ns)
}

// NoteFetchStall counts one work-fetch attempt that found nothing runnable
// anywhere — the worker's own deques and every steal victim were empty.
func (p *Profiler) NoteFetchStall(worker int) {
	p.workers[workerSlot(worker, &p.truncated)].fetchStalls.Add(1)
}

// NoteSteal counts one steal sweep by a worker whose own deque ran dry:
// ok means the sweep took an item from a sibling's deque, !ok that every
// victim was empty at that bound. The steal/fail ratio is the scheduler's
// load-balance health metric — mostly-failing sweeps mean the search is
// starved, not imbalanced.
func (p *Profiler) NoteSteal(worker int, ok bool) {
	w := &p.workers[workerSlot(worker, &p.truncated)]
	if ok {
		w.steals.Add(1)
	} else {
		w.stealFails.Add(1)
	}
}

// NoteIdle adds nanoseconds one worker spent parked with no runnable or
// stealable work anywhere (distinct from barrier waits, where the worker
// is deliberately held at a bound retirement).
func (p *Profiler) NoteIdle(worker int, ns int64) {
	if ns < 0 {
		return
	}
	p.workers[workerSlot(worker, &p.truncated)].idleNS.Add(ns)
}

// LockSite selects which striped structure a LockObserver attributes its
// waits to.
type LockSite int

const (
	// LockStateSet attributes waits to hb.ShardedStateSet shards.
	LockStateSet LockSite = iota
	// LockWorkTable attributes waits to the shared work-item-table shards.
	LockWorkTable
)

// LockObserver is one worker's view of one striped structure's lock
// contention. It satisfies, structurally, every `NoteWait(int64)` observer
// interface the instrumented structures accept (hb.Contention and the
// work-item table's), so those packages need not import this one.
type LockObserver struct {
	p    *Profiler
	slot int
	site LockSite
}

// NoteWait records one contended lock acquire that waited ns nanoseconds.
func (o *LockObserver) NoteWait(ns int64) {
	w := &o.p.workers[o.slot]
	switch o.site {
	case LockStateSet:
		w.stateWaits.Add(1)
		w.stateWaitNS.Add(ns)
	case LockWorkTable:
		w.tableWaits.Add(1)
		w.tableWaitNS.Add(ns)
	}
}

// Locks returns the lock-contention observer attributing waits on site to
// worker. Observers are cheap and stateless beyond the slot; callers
// typically create one per worker per structure at worker setup.
func (p *Profiler) Locks(worker int, site LockSite) *LockObserver {
	return &LockObserver{p: p, slot: workerSlot(worker, &p.truncated), site: site}
}

// Profile implements obs.ProfileSource: a plain-value snapshot of every
// counter, safe to retain and encode while updates continue.
func (p *Profiler) Profile() obs.ProfileData {
	d := obs.ProfileData{
		SampleEvery: p.sampleEvery,
		Truncated:   p.truncated.Load(),
	}
	for ph := 0; ph < numPhases; ph++ {
		stat := obs.ProfilePhase{
			Phase:   phaseNames[ph],
			Count:   p.phaseCount[ph].Load(),
			NS:      p.phaseNS[ph].Load(),
			Sampled: sampledPhase(ph),
		}
		if stat.Count == 0 {
			continue
		}
		for b := 0; b < numBuckets; b++ {
			if n := p.hist[ph][b].Load(); n > 0 {
				lo := int64(0)
				if b > 0 {
					lo = int64(1) << (b - 1)
				}
				stat.Buckets = append(stat.Buckets, obs.ProfileBucket{LoNS: lo, Count: n})
			}
		}
		d.Phases = append(d.Phases, stat)
	}
	for b := 0; b < maxBounds; b++ {
		execs := p.boundExecs[b].Load()
		if execs == 0 {
			continue
		}
		classes := p.boundClasses[b].Load()
		pb := obs.ProfileBound{
			Bound:         b,
			Executions:    execs,
			NewClasses:    classes,
			RedundantFrac: 1 - float64(classes)/float64(execs),
			DurationNS:    p.boundDurNS[b].Load(),
		}
		if pruned := p.boundPruned[b].Load(); pruned > 0 {
			pb.Pruned = pruned
			pb.RedundantFracFull = 1 - float64(classes)/float64(execs+pruned)
		}
		for ph := 0; ph < numPhases; ph++ {
			if ns := p.boundPhaseNS[b][ph].Load(); ns > 0 {
				pb.PhaseNS = append(pb.PhaseNS, obs.ProfilePhaseNS{Phase: phaseNames[ph], NS: ns})
			}
		}
		d.Bounds = append(d.Bounds, pb)
	}
	for w := 0; w < maxWorkers; w++ {
		wc := &p.workers[w]
		if !wc.seen() {
			continue
		}
		d.Workers = append(d.Workers, obs.ProfileWorker{
			Worker:          w,
			StateLockWaits:  wc.stateWaits.Load(),
			StateLockWaitNS: wc.stateWaitNS.Load(),
			TableLockWaits:  wc.tableWaits.Load(),
			TableLockWaitNS: wc.tableWaitNS.Load(),
			BarrierWaitNS:   wc.barrierNS.Load(),
			FetchStalls:     wc.fetchStalls.Load(),
			Steals:          wc.steals.Load(),
			StealFails:      wc.stealFails.Load(),
			IdleNS:          wc.idleNS.Load(),
		})
	}
	p.mu.Lock()
	d.FirstBugs = append([]obs.ProfileFirstBug(nil), p.firstBugs...)
	p.mu.Unlock()
	return d
}
