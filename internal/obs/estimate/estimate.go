// Package estimate implements online schedule-space estimation for bounded
// search: while a preemption bound drains, it answers "how many executions
// does this bound hold, what fraction is done, and when will it finish".
//
// The estimator combines two signals, in the spirit of Knuth's classic
// tree-size estimator ("Estimating the efficiency of backtrack programs",
// 1975) and JPF's StateCountEstimator:
//
//   - Branching samples. The engine multiplies, over every scheduling
//     point of an execution, the number of alternatives the strategy can
//     explore there without leaving the current bound, and reports the
//     product with the execution (obs.ExecutionEvent.Branching). The
//     product along one root-to-leaf path is a Knuth sample of the bound's
//     execution-tree leaf count; the running mean of the per-execution
//     products estimates the executions one work item (seed schedule)
//     expands into. This is the only signal available at the start of a
//     bound, before any work item has been fully explored.
//
//   - Work-item progress. Bounded strategies drain a known queue of seed
//     schedules (obs.BoundEvent.Queue at BoundStart) and report how many
//     they have finished (obs.ExecutionEvent.SeedsDone). Once at least one
//     seed is done, the mean executions-per-seed observed so far is a far
//     better subtree-size estimate than the Knuth products, so the
//     estimator switches to
//
//     estimated total = observed + remaining seeds × observed/done seeds.
//
// The estimate therefore converges to the exact execution count as the
// bound drains and equals it once BoundComplete arrives. ETA is projected
// from the bound's observed execution rate. Estimates are meaningful for
// the bounded strategies (icb, idfs); for unbounded strategies no
// BoundStart arrives and no estimate is produced.
//
// An Estimator is an obs.Sink (a subscriber to the bound lifecycle and
// execution events) and an obs.EstimateSource (for Metrics.Snapshot,
// Progress, and the dashboard).
// All methods are safe for concurrent use: the engine feeds it from the
// search goroutine while HTTP handlers read estimates.
package estimate

import (
	"math"
	"sort"
	"sync"
	"time"

	"icb/internal/obs"
)

// Estimator produces live per-bound schedule-space estimates. Create with
// New and attach as a member of the search's event sink.
type Estimator struct {
	mu     sync.Mutex
	now    func() time.Time // injectable clock for tests
	bounds map[int]*boundState
}

// boundState accumulates one bound's evidence.
type boundState struct {
	started    bool
	start      time.Time
	seedsTotal int
	seedsDone  int
	execs      int64
	done       bool

	// Knuth sampling: the sum and count of the executions' branching
	// products.
	prodSum float64
	prodN   int64
}

// New returns an empty Estimator using the real clock.
func New() *Estimator {
	return &Estimator{now: time.Now, bounds: make(map[int]*boundState)}
}

// SetClock replaces the estimator's time source; tests use it to make ETA
// projections deterministic.
func (e *Estimator) SetClock(now func() time.Time) {
	e.mu.Lock()
	e.now = now
	e.mu.Unlock()
}

func (e *Estimator) get(bound int) *boundState {
	b := e.bounds[bound]
	if b == nil {
		b = &boundState{}
		e.bounds[bound] = b
	}
	return b
}

// Emit implements obs.Sink. BoundStart opens a bound with its seed-queue
// size and starts its wall clock; each execution counts toward its bound
// and contributes its seed progress and Knuth sample; BoundComplete makes
// the bound's execution count exact.
func (e *Estimator) Emit(ev obs.Event) {
	switch ev := ev.(type) {
	case *obs.ExecutionEvent:
		e.mu.Lock()
		b := e.get(ev.Bound)
		b.execs++
		if ev.SeedsTotal > 0 {
			b.seedsDone, b.seedsTotal = ev.SeedsDone, ev.SeedsTotal
		}
		if ev.Branching >= 1 {
			b.prodSum += ev.Branching
			b.prodN++
		}
		e.mu.Unlock()
	case *obs.BoundStart:
		e.mu.Lock()
		b := e.get(ev.Bound)
		b.started = true
		b.start = e.now()
		b.seedsTotal = ev.Queue
		e.mu.Unlock()
	case *obs.BoundComplete:
		e.mu.Lock()
		e.get(ev.Bound).done = true
		e.mu.Unlock()
	}
}

// estimateTotal returns the bound's current total-execution estimate, or
// ok=false when there is no evidence yet. The estimate is always finite and
// non-negative: degenerate evidence (zero seeds, empty queues, clock
// weirdness) must yield "no estimate", never Inf or NaN, because the value
// flows verbatim into Progress suffixes and /api/snapshot JSON (and
// encoding/json refuses non-finite floats outright).
func (b *boundState) estimateTotal() (est float64, ok bool) {
	switch {
	case b.done:
		est = float64(b.execs)
	case b.seedsDone > 0 && b.execs > 0:
		mean := float64(b.execs) / float64(b.seedsDone)
		est = float64(b.execs) + float64(b.seedsTotal-b.seedsDone)*mean
	case b.prodN > 0 && b.seedsTotal > 0:
		est = (b.prodSum / float64(b.prodN)) * float64(b.seedsTotal)
	default:
		return 0, false
	}
	if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
		return 0, false
	}
	return est, true
}

// Estimates implements obs.EstimateSource: the current per-bound estimates
// in ascending bound order. Bounds that never started (unbounded
// strategies) are omitted.
func (e *Estimator) Estimates() []obs.BoundEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]obs.BoundEstimate, 0, len(e.bounds))
	for bound, b := range e.bounds {
		if !b.started {
			continue
		}
		est, ok := b.estimateTotal()
		if !ok {
			continue
		}
		be := obs.BoundEstimate{
			Bound:      bound,
			Executions: b.execs,
			EstTotal:   est,
			Fraction:   1,
			Done:       b.done,
		}
		if est > 0 && float64(b.execs) < est {
			be.Fraction = float64(b.execs) / est
		}
		if !b.done && b.execs > 0 && est > float64(b.execs) {
			if elapsed := now.Sub(b.start); elapsed > 0 {
				eta := float64(elapsed.Nanoseconds()) *
					(est - float64(b.execs)) / float64(b.execs)
				// A wild early estimate can push the projection past the
				// int64 range, where float->int conversion is undefined
				// (and lands on MinInt64 in practice, i.e. a negative
				// ETA). Saturate instead: "longer than ~29 years" is all
				// a progress line needs to convey.
				const maxETA = float64(math.MaxInt64 / 10)
				if eta > maxETA {
					eta = maxETA
				}
				if eta > 0 {
					be.ETANanos = int64(eta)
				}
			}
		}
		out = append(out, be)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bound < out[j].Bound })
	return out
}
