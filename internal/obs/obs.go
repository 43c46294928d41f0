// Package obs is the observability layer of the checker: one structured
// event stream threaded through the stateless engine, the explicit-state
// checker, and every search strategy. CHESS-style stateless search is a
// long-running batch workload; without telemetry a bound-3 run is
// indistinguishable from a hung one. The design follows the tooling the
// paper's ecosystem grew for this exact need (JPF's SearchMonitor and
// StateCountEstimator, both listeners on one interface): emitters report
// each fact once, as an Event passed to Sink.Emit, and every consumer is a
// subscriber — live counters (Metrics), the schedule-space estimator, a
// rate-limited progress line, NDJSON for offline analysis, the dashboard,
// the journal — combined with Multi.
//
// The hot path stays cheap when telemetry is off: core.Options.Sink
// defaults to nil and every emission site is guarded by a single nil-check,
// so a disabled engine pays one predictable branch per execution and
// allocates nothing. With a sink attached, the engine passes a pointer to
// an event it owns and reuses, so the per-execution path stays
// allocation-free too; a subscriber that keeps an event must copy it.
package obs

import "sync/atomic"

// ExecutionEvent reports one completed (or cut) execution of the program
// under test, emitted after every execution (the hot path). For the
// explicit-state checker, the unit is one work item.
type ExecutionEvent struct {
	// Execution is the 1-based index of the execution.
	Execution int `json:"execution"`
	// Status is the outcome status ("terminated", "deadlock", "stopped", ...).
	Status string `json:"status"`
	// Steps is the length of the execution.
	Steps int `json:"steps"`
	// Preemptions is the number of preempting context switches.
	Preemptions int `json:"preemptions"`
	// States and Classes are the cumulative coverage counters.
	States  int `json:"states"`
	Classes int `json:"classes,omitempty"`
	// Bound is the preemption bound the execution ran under (-1 when the
	// strategy has no bound structure).
	Bound int `json:"bound"`
	// Frontier is the number of deferred work items known to the engine.
	Frontier int `json:"frontier"`

	// The remaining fields are in-process only (never serialized): they
	// feed Metrics and the schedule-space estimator.

	// Worker is the 1-based worker that ran the execution, 0 when the
	// search is sequential; Stolen reports that the worker took the
	// execution's work item from a sibling's deque. A steal whose item a
	// stop returned to the deque unrun reaches no event, so after a
	// stopped search Metrics' per-worker steals can trail the profiler's
	// (which counts every take); after a finished search they agree.
	Worker int  `json:"-"`
	Stolen bool `json:"-"`
	// Branching is the execution's Knuth sample: the product, over its
	// scheduling points, of the alternatives the current bound admits
	// there (capped near 1e15; 0 when the execution had no scheduling
	// point).
	Branching float64 `json:"-"`
	// SeedsDone of SeedsTotal seed schedules of the execution's bound have
	// been fully explored (the latest progress the worker knows; both 0
	// when unknown).
	SeedsDone  int `json:"-"`
	SeedsTotal int `json:"-"`
}

// BoundEvent is the payload of the bound lifecycle events (BoundStart,
// BoundComplete): one preemption bound or, for iterative depth bounding,
// one depth round.
type BoundEvent struct {
	// Bound is the bound the event concerns.
	Bound int `json:"bound"`
	// Queue is the number of work items queued within this bound (start).
	Queue int `json:"queue,omitempty"`
	// Frontier is the number of items deferred to the next bound (complete).
	Frontier int `json:"frontier,omitempty"`
	// Executions and States are the cumulative counters at the event.
	Executions int `json:"executions"`
	States     int `json:"states"`
	// DurationNS is the wall-clock time spent inside the bound (complete).
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// BugEvent reports a newly discovered (deduplicated) defect, once per
// distinct defect, at discovery.
type BugEvent struct {
	// Kind is the bug classification ("deadlock", "data race", ...).
	Kind string `json:"kind"`
	// Message is the defect description.
	Message string `json:"message"`
	// Preemptions is the preemption count of the exposing execution.
	Preemptions int `json:"preemptions"`
	// Execution is the 1-based index of the exposing execution.
	Execution int `json:"execution"`
	// Schedule is the exposing execution's decision log in its compact
	// string form ("t0 t1 d0 ..."); sched.ParseSchedule round-trips it.
	// Sinks that persist repro artifacts (package repro) depend on it;
	// empty when the emitter has no replayable schedule (explicit-state
	// checking reports paths, not schedules).
	Schedule string `json:"schedule,omitempty"`
	// Steps is the length of the exposing execution.
	Steps int `json:"steps,omitempty"`
}

// CacheEvent reports one work-item-table hit, with the search-wide
// cumulative totals at that hit (every worker's lookups, plus the totals a
// resumed search restored). Each hit's Hits value is distinct.
type CacheEvent struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// SearchEvent reports the end of a whole exploration.
type SearchEvent struct {
	// Strategy is the search strategy name.
	Strategy string `json:"strategy"`
	// Executions, States, Classes, Bugs are the final counters.
	Executions int `json:"executions"`
	States     int `json:"states"`
	Classes    int `json:"classes,omitempty"`
	Bugs       int `json:"bugs"`
	// BoundCompleted is the highest fully-explored bound (-1 if none).
	BoundCompleted int `json:"bound_completed"`
	// Exhausted reports a complete search.
	Exhausted bool `json:"exhausted"`
	// DurationNS is the total search wall time.
	DurationNS int64 `json:"duration_ns"`
	// CacheHits and CacheMisses are the final work-item-table totals; both
	// zero when state caching was off.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

// BoundEstimate is one bound's schedule-space estimate, produced by an
// EstimateSource (package obs/estimate) and surfaced in Snapshot.
type BoundEstimate struct {
	// Bound is the preemption bound (or depth round) the estimate concerns.
	Bound int `json:"bound"`
	// Executions is the number of executions observed at the bound so far.
	Executions int64 `json:"executions"`
	// EstTotal is the estimated total number of executions the bound holds.
	EstTotal float64 `json:"est_total"`
	// Fraction is Executions/EstTotal, clamped to [0, 1].
	Fraction float64 `json:"fraction"`
	// ETANanos is the projected remaining wall time of the bound at the
	// current execution rate (0 when the bound is done or rate is unknown).
	ETANanos int64 `json:"eta_ns"`
	// Done reports that the bound completed; EstTotal is then exact.
	Done bool `json:"done"`
}

// EstimateSource produces live per-bound schedule-space estimates. It is
// implemented by estimate.Estimator; Metrics and Progress hold it as an
// interface so package obs does not depend on the estimator math.
type EstimateSource interface {
	// Estimates returns the current per-bound estimates in ascending bound
	// order. Safe for concurrent use.
	Estimates() []BoundEstimate
}

// CoverageBoundCount is one preemption bound's counters at one scheduling
// point: how often the point was reached, how often it was an actual
// preemption site, and how many distinct next-thread choices the search has
// taken there. Produced by coverage.Recorder and surfaced in Snapshot.
type CoverageBoundCount struct {
	// Bound is the preemption bound (-1 for strategies without bound
	// structure).
	Bound int `json:"bound"`
	// Reached counts scheduling decisions observed at the point.
	Reached int64 `json:"reached"`
	// Preempted counts decisions that preempted the point's thread there.
	Preempted int64 `json:"preempted"`
	// Choices is the number of distinct threads ever scheduled next at the
	// point.
	Choices int `json:"choices"`
}

// CoverageSite is one scheduling point of the coverage atlas, identified by
// its stable static key (see coverage.Key), with per-bound counters in
// ascending bound order.
type CoverageSite struct {
	// Program is the name of the program under test.
	Program string `json:"program"`
	// Kind is the operation kind at the point ("acquire", "write", ...).
	Kind string `json:"kind"`
	// Loc is the static location label: the registration name of the
	// variable the pending operation touches.
	Loc string `json:"loc"`
	// Thread is the spawn name of the thread parked at the point.
	Thread string `json:"thread"`
	// Bounds holds the per-bound counters, ascending by bound.
	Bounds []CoverageBoundCount `json:"bounds"`
}

// CoverageSource produces a point-in-time view of the preemption-point
// coverage atlas. Implemented by coverage.Recorder; Metrics holds it as an
// interface so package obs does not depend on the atlas bookkeeping.
type CoverageSource interface {
	// CoverageSites returns the atlas sites in a deterministic order. Safe
	// for concurrent use.
	CoverageSites() []CoverageSite
}

// MaxTrackedBounds caps the per-bound counter arrays in Metrics. The paper's
// whole point is that interesting bounds are tiny (every known bug within
// 3 preemptions); executions at bounds beyond the cap are folded into the
// last slot, and Snapshot.Truncated reports that folding happened.
const MaxTrackedBounds = 64

// Metrics is a set of live counters cheap enough to update on the
// per-execution path and safe to read concurrently (e.g. from an expvar
// HTTP handler while a search runs on another goroutine). It is a Sink:
// attach it to a search like any other subscriber. All fields are atomics;
// the struct must not be copied after first use.
//
// A Metrics may watch a series of explorations (icb-bench runs many):
// Executions, Bugs and the cache counters then accumulate across them,
// each exploration's final SearchEvent folding its exact totals into the
// running sums, while States, Classes and the bound and queue gauges
// describe the latest exploration.
type Metrics struct {
	// Executions counts completed (or cut) executions.
	Executions atomic.Int64
	// States and Classes mirror the cumulative coverage counters.
	States  atomic.Int64
	Classes atomic.Int64
	// CacheHits and CacheMisses count work-item-table lookups.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// QueueDepth is the latest known number of deferred work items.
	QueueDepth atomic.Int64
	// Bugs counts distinct defects found.
	Bugs atomic.Int64
	// SSEDropped counts dashboard events dropped on slow SSE subscribers
	// (incremented by the dashboard's event bridge, not the engine). Slow
	// browsers lose events by design; this makes the loss visible instead
	// of silent.
	SSEDropped atomic.Int64

	// curBound is one more than the bound currently being drained, so the
	// zero value reads as Snapshot.CurBound -1 (outside bounds, or no bound
	// started yet).
	curBound atomic.Int64

	boundExecs [MaxTrackedBounds]atomic.Int64
	boundNanos [MaxTrackedBounds]atomic.Int64
	// workerExecs counts executions per parallel-search worker; a
	// sequential search records nothing here. Workers beyond the cap fold
	// into the last slot, flagged by truncated like deep bounds.
	// workerSteals counts successful work steals per worker, same slotting.
	workerExecs  [MaxTrackedWorkers]atomic.Int64
	workerSteals [MaxTrackedWorkers]atomic.Int64
	// truncated records that some observation was folded into the last
	// slot because its bound was >= MaxTrackedBounds (or its worker index
	// >= MaxTrackedWorkers).
	truncated atomic.Bool

	// est is the attached EstimateSource (or nil), stored atomically so
	// Snapshot can race with SetEstimator under -race.
	est atomic.Value
	// cov is the attached CoverageSource (or nil), same discipline as est.
	cov atomic.Value
	// prof is the attached ProfileSource (or nil), same discipline as est.
	prof atomic.Value

	// The ended* counters hold the Executions, Bugs, CacheHits and
	// CacheMisses totals of the explorations whose SearchEvent already
	// arrived; the running exploration's cumulative event values are added
	// on top.
	endedExecs, endedBugs, endedHits, endedMisses atomic.Int64
}

// storeMax raises a to v unless it already holds more: concurrent workers
// report cumulative values out of order.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Emit implements Sink: it folds one event into the counters.
func (m *Metrics) Emit(ev Event) {
	switch ev := ev.(type) {
	case *ExecutionEvent:
		storeMax(&m.Executions, m.endedExecs.Load()+int64(ev.Execution))
		m.boundExecs[m.boundSlot(ev.Bound)].Add(1)
		if ev.Worker > 0 {
			w := m.workerSlot(ev.Worker - 1)
			m.workerExecs[w].Add(1)
			if ev.Stolen {
				m.workerSteals[w].Add(1)
			}
		}
		m.States.Store(int64(ev.States))
		m.Classes.Store(int64(ev.Classes))
		m.QueueDepth.Store(int64(ev.Frontier))
		if ev.Bound < 0 {
			m.curBound.Store(0)
		}
	case *BoundStart:
		m.curBound.Store(int64(ev.Bound) + 1)
		m.QueueDepth.Store(int64(ev.Queue))
	case *BoundComplete:
		m.boundNanos[m.boundSlot(ev.Bound)].Add(ev.DurationNS)
		m.QueueDepth.Store(int64(ev.Frontier))
	case *BugEvent:
		m.Bugs.Add(1)
	case *CacheEvent:
		storeMax(&m.CacheHits, m.endedHits.Load()+ev.Hits)
		storeMax(&m.CacheMisses, m.endedMisses.Load()+ev.Misses)
	case *ResumeEvent:
		m.Executions.Store(m.endedExecs.Load() + int64(ev.Executions))
		m.Bugs.Store(m.endedBugs.Load() + int64(ev.Bugs))
	case *SearchEvent:
		m.Executions.Store(m.endedExecs.Add(int64(ev.Executions)))
		m.Bugs.Store(m.endedBugs.Add(int64(ev.Bugs)))
		m.CacheHits.Store(m.endedHits.Add(ev.CacheHits))
		m.CacheMisses.Store(m.endedMisses.Add(ev.CacheMisses))
		m.States.Store(int64(ev.States))
		m.Classes.Store(int64(ev.Classes))
	}
}

func (m *Metrics) boundSlot(bound int) int {
	if bound < 0 {
		bound = 0
	}
	if bound >= MaxTrackedBounds {
		m.truncated.Store(true)
		bound = MaxTrackedBounds - 1
	}
	return bound
}

// MaxTrackedWorkers caps the per-worker counter arrays; parallel searches
// wider than this fold the excess workers into the last slot.
const MaxTrackedWorkers = 64

func (m *Metrics) workerSlot(worker int) int {
	if worker >= MaxTrackedWorkers {
		m.truncated.Store(true)
		worker = MaxTrackedWorkers - 1
	}
	return worker
}

// SetEstimator attaches a schedule-space estimator; its per-bound
// estimates are included in every subsequent Snapshot.
func (m *Metrics) SetEstimator(src EstimateSource) {
	m.est.Store(&src)
}

// SetCoverage attaches a coverage-atlas source; its sites are included in
// every subsequent Snapshot.
func (m *Metrics) SetCoverage(src CoverageSource) {
	m.cov.Store(&src)
}

// SetProfile attaches a search profiler; its snapshot is included in every
// subsequent Snapshot.
func (m *Metrics) SetProfile(src ProfileSource) {
	m.prof.Store(&src)
}

// clampSlot is the read-side slot clamp: unlike the write side it does not
// flag truncation (reading an out-of-range bound is not a lost sample).
func clampSlot(bound int) int {
	if bound < 0 {
		bound = 0
	}
	if bound >= MaxTrackedBounds {
		bound = MaxTrackedBounds - 1
	}
	return bound
}

// BoundExecutions returns the execution count recorded at a bound.
func (m *Metrics) BoundExecutions(bound int) int64 {
	return m.boundExecs[clampSlot(bound)].Load()
}

// BoundNanos returns the wall-clock nanoseconds recorded at a bound.
func (m *Metrics) BoundNanos(bound int) int64 {
	return m.boundNanos[clampSlot(bound)].Load()
}

// BoundSnapshot is the per-bound slice of a Snapshot.
type BoundSnapshot struct {
	Bound      int   `json:"bound"`
	Executions int64 `json:"executions"`
	DurationNS int64 `json:"duration_ns"`
}

// WorkerSnapshot is one parallel worker's share of a Snapshot: its
// execution count and its share of all worker-attributed executions
// (utilization; ~1/W each when work distributes evenly).
type WorkerSnapshot struct {
	Worker     int     `json:"worker"`
	Executions int64   `json:"executions"`
	Share      float64 `json:"share"`
	// Steals counts work items this worker stole from siblings' deques
	// (zero under the pre-stealing shared-index scheduler).
	Steals int64 `json:"steals,omitempty"`
}

// Snapshot is a plain-value copy of the counters, suitable for JSON
// encoding (expvar.Func) or test assertions.
type Snapshot struct {
	Executions  int64 `json:"executions"`
	States      int64 `json:"states"`
	Classes     int64 `json:"classes"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	QueueDepth  int64 `json:"queue_depth"`
	Bugs        int64 `json:"bugs"`
	// CurBound is the bound being drained (-1 outside bounds).
	CurBound int64 `json:"cur_bound"`
	// SSEDropped counts dashboard events dropped on slow SSE subscribers.
	SSEDropped int64 `json:"sse_dropped_events,omitempty"`
	// Truncated reports that at least one observation fell at a bound >=
	// MaxTrackedBounds and was folded into the last Bounds entry, so that
	// entry aggregates several bounds rather than describing one.
	Truncated bool            `json:"truncated,omitempty"`
	Bounds    []BoundSnapshot `json:"bounds,omitempty"`
	// Workers carries per-worker execution counts of a parallel search
	// (empty for sequential searches).
	Workers []WorkerSnapshot `json:"workers,omitempty"`
	// Estimates carries the per-bound schedule-space estimates of the
	// attached estimator (empty when none is attached).
	Estimates []BoundEstimate `json:"estimates,omitempty"`
	// Coverage carries the preemption-point coverage atlas of the attached
	// coverage source (empty when none is attached).
	Coverage []CoverageSite `json:"coverage,omitempty"`
	// Profile carries the attached search profiler's snapshot (nil when no
	// profiler is attached).
	Profile *ProfileData `json:"profile,omitempty"`
	// Peers carries the fleet aggregator's per-peer status (only in merged
	// fleet snapshots; empty for single-process searches).
	Peers []PeerStatus `json:"peers,omitempty"`
}

// Snapshot copies the counters. Per-bound entries are trimmed to the
// bounds that saw at least one execution.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Executions:  m.Executions.Load(),
		States:      m.States.Load(),
		Classes:     m.Classes.Load(),
		CacheHits:   m.CacheHits.Load(),
		CacheMisses: m.CacheMisses.Load(),
		QueueDepth:  m.QueueDepth.Load(),
		Bugs:        m.Bugs.Load(),
		CurBound:    m.curBound.Load() - 1,
		SSEDropped:  m.SSEDropped.Load(),
		Truncated:   m.truncated.Load(),
	}
	for b := 0; b < MaxTrackedBounds; b++ {
		if n := m.boundExecs[b].Load(); n > 0 {
			s.Bounds = append(s.Bounds, BoundSnapshot{
				Bound:      b,
				Executions: n,
				DurationNS: m.boundNanos[b].Load(),
			})
		}
	}
	var workerTotal int64
	for w := 0; w < MaxTrackedWorkers; w++ {
		workerTotal += m.workerExecs[w].Load()
	}
	if workerTotal > 0 {
		for w := 0; w < MaxTrackedWorkers; w++ {
			if n := m.workerExecs[w].Load(); n > 0 {
				s.Workers = append(s.Workers, WorkerSnapshot{
					Worker:     w,
					Executions: n,
					Share:      float64(n) / float64(workerTotal),
					Steals:     m.workerSteals[w].Load(),
				})
			}
		}
	}
	if p, _ := m.est.Load().(*EstimateSource); p != nil && *p != nil {
		s.Estimates = (*p).Estimates()
	}
	if p, _ := m.cov.Load().(*CoverageSource); p != nil && *p != nil {
		s.Coverage = (*p).CoverageSites()
	}
	if p, _ := m.prof.Load().(*ProfileSource); p != nil && *p != nil {
		d := (*p).Profile()
		s.Profile = &d
	}
	return s
}
