package estimate_test

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/estimate"
	"icb/internal/progs/wsq"
)

// findBound returns the estimate for one bound, failing if absent.
func findBound(t *testing.T, es []obs.BoundEstimate, bound int) obs.BoundEstimate {
	t.Helper()
	for _, e := range es {
		if e.Bound == bound {
			return e
		}
	}
	t.Fatalf("no estimate for bound %d in %+v", bound, es)
	return obs.BoundEstimate{}
}

// TestSeedModelAndETA drives the estimator with synthetic events under a
// deterministic clock: 10 seed schedules, half done after 50 executions in
// 50 seconds, so the model projects 100 total and 50s remaining.
func TestSeedModelAndETA(t *testing.T) {
	est := estimate.New()
	now := time.Unix(0, 0)
	est.SetClock(func() time.Time { return now })

	est.Emit(&obs.BoundStart{Bound: 2, Queue: 10})
	for i := 1; i <= 49; i++ {
		now = now.Add(time.Second)
		est.Emit(&obs.ExecutionEvent{Bound: 2, Execution: i, Branching: 1})
	}
	now = now.Add(time.Second)
	est.Emit(&obs.ExecutionEvent{Bound: 2, Execution: 50, Branching: 1, SeedsDone: 5, SeedsTotal: 10})

	e := findBound(t, est.Estimates(), 2)
	if e.Executions != 50 || e.Done {
		t.Fatalf("estimate = %+v, want 50 executions, not done", e)
	}
	if e.EstTotal != 100 {
		t.Errorf("EstTotal = %v, want 100 (50 observed + 5 remaining seeds x 10/seed)", e.EstTotal)
	}
	if e.Fraction != 0.5 {
		t.Errorf("Fraction = %v, want 0.5", e.Fraction)
	}
	if want := (50 * time.Second).Nanoseconds(); e.ETANanos != want {
		t.Errorf("ETANanos = %v, want %v", time.Duration(e.ETANanos), time.Duration(want))
	}
}

// TestKnuthColdStart checks the fallback before any seed completes: the
// mean branching product of the observed executions, scaled by the seed
// count.
func TestKnuthColdStart(t *testing.T) {
	est := estimate.New()
	est.Emit(&obs.BoundStart{Bound: 1, Queue: 4})
	// One execution with branching widths 2 and 3 along its path.
	est.Emit(&obs.ExecutionEvent{Bound: 1, Execution: 1, Branching: 2 * 3})

	e := findBound(t, est.Estimates(), 1)
	if e.EstTotal != 24 {
		t.Errorf("EstTotal = %v, want 24 (product 6 x 4 seeds)", e.EstTotal)
	}

	// A second, narrower path halves the mean product: (6+1)/2 x 4 = 14.
	est.Emit(&obs.ExecutionEvent{Bound: 1, Execution: 2, Branching: 1})
	if e := findBound(t, est.Estimates(), 1); e.EstTotal != 14 {
		t.Errorf("EstTotal = %v, want 14", e.EstTotal)
	}
}

// TestBoundCompleteIsExact checks convergence: once a bound completes, the
// estimate is the observed count exactly, fraction 1, no ETA.
func TestBoundCompleteIsExact(t *testing.T) {
	est := estimate.New()
	est.Emit(&obs.BoundStart{Bound: 0, Queue: 1})
	for i := 1; i <= 7; i++ {
		est.Emit(&obs.ExecutionEvent{Bound: 0, Execution: i})
	}
	est.Emit(&obs.BoundComplete{Bound: 0})

	e := findBound(t, est.Estimates(), 0)
	if !e.Done || e.EstTotal != 7 || e.Fraction != 1 || e.ETANanos != 0 {
		t.Errorf("completed bound estimate = %+v, want done, total 7, fraction 1, no ETA", e)
	}
}

// TestUnboundedStrategyHasNoEstimates checks that bounds which never
// started (no BoundStart, e.g. the random walk's bound -1) are omitted.
func TestUnboundedStrategyHasNoEstimates(t *testing.T) {
	est := estimate.New()
	est.Emit(&obs.ExecutionEvent{Bound: -1, Execution: 1})
	if es := est.Estimates(); len(es) != 0 {
		t.Errorf("Estimates() = %+v, want none for an unbounded strategy", es)
	}
}

// probe records, after every execution, the estimator's view of the bound
// the execution ran at, so accuracy can be judged mid-bound after the fact.
type probe struct {
	est     *estimate.Estimator
	history map[int][]obs.BoundEstimate // bound -> estimate after each execution
}

func (p *probe) Emit(e obs.Event) {
	ev, ok := e.(*obs.ExecutionEvent)
	if !ok {
		return
	}
	for _, e := range p.est.Estimates() {
		if e.Bound == ev.Bound {
			p.history[ev.Bound] = append(p.history[ev.Bound], e)
		}
	}
}

// TestAccuracyOnWSQ is the acceptance check: on an exhaustively countable
// benchmark (the work-stealing queue at small bounds) the final per-bound
// estimate must land within 25% of the true execution count, and the
// mid-bound estimates must already be in the right ballpark.
func TestAccuracyOnWSQ(t *testing.T) {
	est := estimate.New()
	p := &probe{est: est, history: map[int][]obs.BoundEstimate{}}
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	res := core.Explore(prog, core.ICB{}, core.Options{
		MaxPreemptions: 2,
		StopOnFirstBug: false,
		Sink:           obs.Multi(est, p),
	})

	if len(res.BoundStats) == 0 {
		t.Fatal("no BoundStats; cannot establish ground truth")
	}
	final := est.Estimates()
	for _, bs := range res.BoundStats {
		truth := float64(bs.Executions)
		e := findBound(t, final, bs.Bound)
		if !e.Done {
			t.Errorf("bound %d never completed in the estimator", bs.Bound)
		}
		if ratio := e.EstTotal / truth; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("bound %d final estimate %v vs true %v: off by %.0f%%",
				bs.Bound, e.EstTotal, truth, 100*(ratio-1))
		}
		// Mid-bound accuracy: halfway through the drain, before completion
		// corrects anything, the online estimate is already within 25%
		// (the search is deterministic, so this does not flake).
		hist := p.history[bs.Bound]
		if len(hist) < 4 {
			continue
		}
		mid := hist[len(hist)/2]
		t.Logf("bound %d: true=%v halfway estimate=%.0f (fraction %.2f)",
			bs.Bound, truth, mid.EstTotal, mid.Fraction)
		if ratio := mid.EstTotal / truth; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("bound %d halfway estimate %v vs true %v: off by %.0f%%",
				bs.Bound, mid.EstTotal, truth, 100*(ratio-1))
		}
	}
}

// TestNoNonfiniteEstimates is the hardening regression test: no matter how
// degenerate or extreme the evidence, Estimates must never surface Inf, NaN,
// or negative values — encoding/json refuses non-finite floats, so one bad
// estimate would break /api/snapshot wholesale.
func TestNoNonfiniteEstimates(t *testing.T) {
	now := time.Unix(0, 0)
	check := func(t *testing.T, est *estimate.Estimator) {
		t.Helper()
		for _, e := range est.Estimates() {
			if math.IsNaN(e.EstTotal) || math.IsInf(e.EstTotal, 0) || e.EstTotal < 0 {
				t.Errorf("bound %d: EstTotal = %v", e.Bound, e.EstTotal)
			}
			if math.IsNaN(e.Fraction) || math.IsInf(e.Fraction, 0) || e.Fraction < 0 || e.Fraction > 1 {
				t.Errorf("bound %d: Fraction = %v", e.Bound, e.Fraction)
			}
			if e.ETANanos < 0 {
				t.Errorf("bound %d: ETANanos = %d", e.Bound, e.ETANanos)
			}
		}
		// The whole point: the snapshot these estimates flow into must
		// always be serializable.
		met := &obs.Metrics{}
		met.SetEstimator(est)
		if _, err := json.Marshal(met.Snapshot()); err != nil {
			t.Errorf("snapshot with these estimates does not marshal: %v", err)
		}
	}

	t.Run("zero seeds zero executions", func(t *testing.T) {
		est := estimate.New()
		est.SetClock(func() time.Time { return now })
		est.Emit(&obs.BoundStart{Bound: 0, Queue: 0})
		check(t, est)
	})
	t.Run("bound done with nothing observed", func(t *testing.T) {
		est := estimate.New()
		est.SetClock(func() time.Time { return now })
		est.Emit(&obs.BoundStart{Bound: 1})
		est.Emit(&obs.BoundComplete{Bound: 1})
		check(t, est)
	})
	t.Run("huge Knuth product times huge queue", func(t *testing.T) {
		// Saturating branching products against a massive seed queue pushes
		// the raw estimate toward float64 extremes; the ETA projection from
		// a long elapsed time would overflow int64 without the clamp.
		est := estimate.New()
		clock := now
		est.SetClock(func() time.Time { return clock })
		est.Emit(&obs.BoundStart{Bound: 2, Queue: 1 << 30})
		clock = clock.Add(10 * time.Hour)
		// The engine caps a 101-point path of width 1000 at 1e15.
		est.Emit(&obs.ExecutionEvent{Bound: 2, Execution: 1, Branching: 1e15})
		check(t, est)
		e := findBound(t, est.Estimates(), 2)
		if e.ETANanos < 0 {
			t.Errorf("ETA overflowed to %d", e.ETANanos)
		}
	})
	t.Run("clock going backwards", func(t *testing.T) {
		est := estimate.New()
		clock := now
		est.SetClock(func() time.Time { return clock })
		est.Emit(&obs.BoundStart{Bound: 3, Queue: 4})
		est.Emit(&obs.ExecutionEvent{Bound: 3, Execution: 1, SeedsDone: 1, SeedsTotal: 4})
		clock = clock.Add(-time.Hour) // negative elapsed: no ETA, never negative
		check(t, est)
		if e := findBound(t, est.Estimates(), 3); e.ETANanos != 0 {
			t.Errorf("ETANanos = %d with a backwards clock, want 0", e.ETANanos)
		}
	})
}

// TestConcurrentReads hammers Estimates from another goroutine while the
// search feeds the estimator, mirroring the dashboard's access pattern;
// run under -race this pins the locking discipline.
func TestConcurrentReads(t *testing.T) {
	est := estimate.New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				est.Estimates()
			}
		}
	}()
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	core.Explore(prog, core.ICB{}, core.Options{
		MaxPreemptions: 1,
		Sink:           est,
	})
	close(stop)
	wg.Wait()
}
