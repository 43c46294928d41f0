package core

import (
	"testing"

	"icb/internal/conc"
	"icb/internal/obs"
	"icb/internal/sched"
)

// TestRecordBugsDedupAllocFree pins the bug-dedup hot path: re-sighting an
// already-filed defect must only bump its count — no schedule clone, no
// event rendering, no allocation at all. An exhaustive search of a buggy
// program hits the same defect along thousands of interleavings, so a
// per-sighting clone would dominate the search's allocations.
func TestRecordBugsDedupAllocFree(t *testing.T) {
	e := NewEngine(func(t *sched.T) {}, Options{})
	out := sched.Outcome{
		Status:      sched.StatusAssertFailed,
		Message:     "item 1 taken twice",
		Preemptions: 2,
		Decisions: sched.Schedule{
			sched.ThreadDecision(0), sched.ThreadDecision(1), sched.ThreadDecision(0),
		},
	}
	e.recordBugs(out, 1) // first sighting files the bug (and may allocate)
	if len(e.res.Bugs) != 1 || e.res.Bugs[0].Count != 1 {
		t.Fatalf("first sighting: bugs = %+v", e.res.Bugs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.recordBugs(out, 2)
	})
	if allocs != 0 {
		t.Errorf("duplicate sighting allocates %.1f objects per run, want 0", allocs)
	}
	if e.res.Bugs[0].Count != 102 {
		t.Errorf("count = %d, want 102", e.res.Bugs[0].Count)
	}
}

// firstEnabled is a controller that always continues the lowest enabled
// thread and takes data choice 0: one fixed execution, run over and over.
type firstEnabled struct{}

func (firstEnabled) PickThread(info sched.PickInfo) (sched.TID, bool) { return info.Enabled[0], true }
func (firstEnabled) PickData(sched.TID, int) int                      { return 0 }

// TestMetricsSinkAddsNoAllocations pins the per-execution cost of live
// counters: RunExecution with only a Metrics attached as the sink (the
// engine's reused execution event and Knuth-sampling wrapper included)
// allocates no more than with no sink at all.
func TestMetricsSinkAddsNoAllocations(t *testing.T) {
	prog := func(t *sched.T) {
		a := conc.NewAtomicInt(t, "a", 0)
		w := t.Go("w", func(t *sched.T) { a.Add(t, 1) })
		a.Add(t, 1)
		t.Join(w)
	}
	perExec := func(sink obs.Sink) float64 {
		e := NewEngine(prog, Options{CheckRaces: true, Sink: sink})
		e.RunExecution(firstEnabled{}) // warm up the engine's reusable state
		return testing.AllocsPerRun(200, func() { e.RunExecution(firstEnabled{}) })
	}
	without := perExec(nil)
	var met obs.Metrics
	with := perExec(&met)
	t.Logf("allocations per execution: %.1f without a sink, %.1f with Metrics", without, with)
	if with > without {
		t.Errorf("RunExecution allocates %.1f objects with a Metrics sink, %.1f without", with, without)
	}
	if met.Executions.Load() != 202 {
		t.Errorf("Metrics saw %d executions, want 202", met.Executions.Load())
	}
}

// TestBranchingProductCap pins the Knuth sample's arithmetic: each
// scheduling point multiplies the product by its within-bound width, a
// width of 1 leaves it unchanged, and the product stops growing once it
// reaches maxBranching — a 101-point path of width 1000 would otherwise be
// 1e303 and poison the estimator's running mean.
func TestBranchingProductCap(t *testing.T) {
	var b branchController
	if b.product != 0 {
		t.Fatalf("fresh product = %v, want 0 (no sample)", b.product)
	}
	b.note(1)
	if b.product != 1 {
		t.Fatalf("after a width-1 point product = %v, want 1", b.product)
	}
	for i := 0; i < 101; i++ {
		b.note(1000)
		if b.product > maxBranching {
			t.Fatalf("after %d width-1000 points product = %v, above the cap %v", i+1, b.product, maxBranching)
		}
	}
	if b.product != maxBranching {
		t.Errorf("product = %v, want the cap %v", b.product, maxBranching)
	}
}

// branchingLog records the Branching of every execution event.
type branchingLog []float64

func (l *branchingLog) Emit(ev obs.Event) {
	if x, ok := ev.(*obs.ExecutionEvent); ok {
		*l = append(*l, x.Branching)
	}
}

// TestExecutionBranching runs the cap case through a real engine: an
// execution with 101 data choices of width 1000 reports the capped
// product, and a following single-thread execution, whose only decision is
// starting the main thread, reports 1 (the engine's reused wrapper starts
// every execution afresh).
func TestExecutionBranching(t *testing.T) {
	var log branchingLog
	wide := NewEngine(func(t *sched.T) {
		for i := 0; i < 101; i++ {
			t.Choose(1000)
		}
	}, Options{Sink: &log})
	wide.RunExecution(firstEnabled{})
	e := NewEngine(func(t *sched.T) {}, Options{Sink: &log})
	e.branch = wide.branch // a leftover product must not leak in
	e.RunExecution(firstEnabled{})
	if len(log) != 2 || log[0] != maxBranching || log[1] != 1 {
		t.Errorf("Branching per execution = %v, want [%v 1]", log, float64(maxBranching))
	}
}
