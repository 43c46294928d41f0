package core_test

// Tests of the search profiler's engine weaving: attaching a profiler must
// not change any deterministic search output, its redundancy accounting
// must tie out exactly against the Result counters, its first-bug records
// must match the engine's bug list, concurrent updates from parallel
// workers must be race-clean, and the attached-profiler overhead must stay
// within the 5% budget (asserted only on multi-core hosts, where the
// parallel path is the one that matters).

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/prof"
)

// TestProfilerDeterministicFieldsUnchanged: a run with the profiler
// attached must produce the same Result, field for field, as a run
// without it — the profiler observes, it must never steer.
func TestProfilerDeterministicFieldsUnchanged(t *testing.T) {
	for _, cache := range []bool{false, true} {
		opt := core.Options{MaxPreemptions: 2, CheckRaces: true, StateCache: cache}
		off := core.Explore(wsqBuggy(), core.ICB{}, opt)

		// Sample every execution so every sampled observer is exercised,
		// not just the default 1 in DefaultSampleEvery.
		opt.Profiler = prof.New(1)
		on := core.Explore(wsqBuggy(), core.ICB{}, opt)

		off.Duration, on.Duration = 0, 0
		for i := range off.BoundStats {
			off.BoundStats[i].Duration = 0
		}
		for i := range on.BoundStats {
			on.BoundStats[i].Duration = 0
		}
		if !reflect.DeepEqual(off, on) {
			t.Errorf("cache=%v: Result with profiler differs from without:\noff: %+v\non:  %+v", cache, off, on)
		}
	}
}

// TestProfilerRedundancyAccounting: on a sequential full ICB drain the
// per-bound accounting must tie out exactly — executions sum to the
// Result's execution count, new classes sum to its execution-class count,
// and each bound's redundant fraction is 1 - new/execs.
func TestProfilerRedundancyAccounting(t *testing.T) {
	p := prof.New(0)
	res := core.Explore(wsqBuggy(), core.ICB{},
		core.Options{MaxPreemptions: 2, CheckRaces: true, Profiler: p})
	d := p.Profile()

	if len(d.Bounds) == 0 {
		t.Fatal("profiler recorded no bounds")
	}
	var execs, classes int64
	for _, b := range d.Bounds {
		execs += b.Executions
		classes += b.NewClasses
		want := 1 - float64(b.NewClasses)/float64(b.Executions)
		if diff := b.RedundantFrac - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bound %d: RedundantFrac = %v, want %v", b.Bound, b.RedundantFrac, want)
		}
	}
	if execs != int64(res.Executions) {
		t.Errorf("sum of bound executions = %d, want Result.Executions = %d", execs, res.Executions)
	}
	if classes != int64(res.ExecutionClasses) {
		t.Errorf("sum of bound new classes = %d, want Result.ExecutionClasses = %d", classes, res.ExecutionClasses)
	}

	// Replay and explore partition every execution's wall clock, so both
	// phases must have exactly one observation per execution.
	for _, ph := range d.Phases {
		if ph.Phase == obs.PhaseReplay || ph.Phase == obs.PhaseExplore {
			if ph.Count != int64(res.Executions) {
				t.Errorf("phase %s: %d observations, want %d", ph.Phase, ph.Count, res.Executions)
			}
		}
	}
}

// TestProfilerFirstBug: the first-sighting records must agree with the
// engine's own bug list — same defects, same exposing execution index —
// including on a StopOnFirstBug run, which stops mid-bound and relies on
// the engine's partial-bound flush.
func TestProfilerFirstBug(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		p := prof.New(0)
		res := core.Explore(wsqBuggy(), core.ICB{},
			core.Options{MaxPreemptions: 2, CheckRaces: true, Profiler: p})
		checkFirstBugs(t, res, p.Profile())
	})
	t.Run("stop-on-first-bug", func(t *testing.T) {
		p := prof.New(0)
		res := core.Explore(wsqBuggy(), core.ICB{},
			core.Options{MaxPreemptions: 3, CheckRaces: true, StopOnFirstBug: true, Profiler: p})
		if len(res.Bugs) != 1 {
			t.Fatalf("StopOnFirstBug found %d bugs, want 1", len(res.Bugs))
		}
		d := p.Profile()
		checkFirstBugs(t, res, d)

		// The stopped bound never completed; the partial flush must still
		// account for every execution.
		var execs int64
		for _, b := range d.Bounds {
			execs += b.Executions
		}
		if execs != int64(res.Executions) {
			t.Errorf("partial-bound flush: bound executions sum to %d, want %d", execs, res.Executions)
		}
	})
}

func checkFirstBugs(t *testing.T, res core.Result, d obs.ProfileData) {
	t.Helper()
	if len(d.FirstBugs) != len(res.Bugs) {
		t.Fatalf("profiler has %d first-bug records, Result has %d bugs", len(d.FirstBugs), len(res.Bugs))
	}
	for i, fb := range d.FirstBugs {
		b := res.Bugs[i]
		if fb.Kind != b.Kind.String() || fb.Message != b.Message {
			t.Errorf("first bug %d: (%s, %q), want (%s, %q)", i, fb.Kind, fb.Message, b.Kind, b.Message)
		}
		if fb.Execution != b.Execution {
			t.Errorf("first bug %d: execution %d, want %d", i, fb.Execution, b.Execution)
		}
		// The sighting happened while draining some bound that admits the
		// exposing execution.
		if fb.Bound < b.Preemptions {
			t.Errorf("first bug %d: sighting bound %d below exposing preemptions %d", i, fb.Bound, b.Preemptions)
		}
		if fb.TNS < 0 {
			t.Errorf("first bug %d: negative time-to-bug %d", i, fb.TNS)
		}
	}
}

// TestProfilerConcurrentParallelICB shares one profiler between four
// parallel workers while a reader goroutine snapshots it continuously.
// Run with -race: this is the test that checks every profiler counter is
// safe under concurrent update and snapshot.
func TestProfilerConcurrentParallelICB(t *testing.T) {
	p := prof.New(1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Profile()
			}
		}
	}()
	res := core.Explore(wsqBuggy(), core.ParallelICB{Workers: 4},
		core.Options{MaxPreemptions: 2, CheckRaces: true, StateCache: true, Profiler: p})
	close(stop)
	<-done

	d := p.Profile()
	var execs int64
	for _, b := range d.Bounds {
		execs += b.Executions
	}
	if execs != int64(res.Executions) {
		t.Errorf("bound executions sum to %d, want %d", execs, res.Executions)
	}
	if len(d.FirstBugs) == 0 {
		t.Error("no first-bug records from a buggy program")
	}
}

// TestProfilerOverhead checks the profiler's <5% overhead budget on an
// exhaustive wsq run. Wall-clock comparisons need a core the scheduler
// is not time-sharing, so single-CPU hosts skip.
func TestProfilerOverhead(t *testing.T) {
	if runtime.NumCPU() == 1 {
		t.Skip("single-CPU host: wall-clock comparison is noise-bound")
	}
	if testing.Short() {
		t.Skip("short mode")
	}

	opt := core.Options{MaxPreemptions: 3, CheckRaces: true, StateCache: true}
	run := func(p *prof.Profiler) time.Duration {
		o := opt
		o.Profiler = p
		// Start every run from a collected heap, so no run pays for the
		// garbage of the one before it.
		runtime.GC()
		return core.Explore(wsqBuggy(), core.ICB{}, o).Duration
	}
	run(nil) // warm-up: page faults, heap growth
	// Interleaved off/on pairs: the two halves of a pair run back to back
	// (in alternating order, so neither half always runs second), a drift
	// in the machine's load hits both alike, and the median of the
	// per-pair ratios discards the pairs a scheduler hiccup landed on.
	const pairs = 31
	ratios := make([]float64, pairs)
	offs := make([]time.Duration, pairs)
	for i := range ratios {
		var on time.Duration
		if i%2 == 0 {
			offs[i] = run(nil)
			on = run(prof.New(0))
		} else {
			on = run(prof.New(0))
			offs[i] = run(nil)
		}
		ratios[i] = float64(on) / float64(offs[i])
	}
	sort.Float64s(ratios)
	slices.Sort(offs)
	ratio, off := ratios[pairs/2], offs[pairs/2]

	// 5% budget, with an absolute floor so sub-millisecond runs (where a
	// single scheduler tick exceeds 5%) cannot flake.
	limit := 1.05
	if floor := float64(off+2*time.Millisecond) / float64(off); limit < floor {
		limit = floor
	}
	t.Logf("median off=%v, median on/off ratio %.3f (pairs %.3f..%.3f)", off, ratio, ratios[0], ratios[pairs-1])
	if ratio > limit {
		t.Errorf("profiler overhead: median on/off ratio %.3f over %d interleaved pairs (median off=%v) exceeds the 5%% budget (limit %.3f)",
			ratio, pairs, off, limit)
	}
}
