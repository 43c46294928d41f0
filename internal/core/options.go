// Package core implements the paper's primary contribution: the iterative
// context bounding (ICB) search algorithm (Algorithm 1), together with the
// stateless exploration engine it runs on. The engine executes the program
// under test repeatedly — each execution driven by a replayable decision
// schedule — and feeds every execution through the happens-before
// fingerprinter (coverage) and a data-race detector (soundness of the
// sync-only reduction, §3.1).
//
// Work items hold replay schedules instead of checkpointed states, the
// standard stateless realization of Algorithm 1: re-executing a schedule
// prefix from the initial state reconstructs exactly the state a stateful
// checker would have stored, because scheduling is the only source of
// nondeterminism in the model.
package core

import (
	"sync/atomic"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/sched"
)

// Options configures an exploration.
type Options struct {
	// MaxPreemptions bounds the ICB search: bounds 0..MaxPreemptions are
	// explored in order. Negative means unbounded (run until the frontier
	// is exhausted). Ignored by non-ICB strategies.
	MaxPreemptions int
	// MaxExecutions caps the total number of executions (0 = unlimited).
	MaxExecutions int
	// MaxSteps bounds each individual execution (0 = sched default).
	MaxSteps int
	// Mode selects scheduling-point placement (default: ModeSyncOnly, the
	// §3.1 reduction; requires CheckRaces for soundness).
	Mode sched.Mode
	// CheckRaces runs a happens-before race detector on every execution and
	// reports races as bugs.
	CheckRaces bool
	// UseGoldilocks selects the Goldilocks lockset detector instead of the
	// vector-clock detector when CheckRaces is set.
	UseGoldilocks bool
	// StopOnFirstBug halts the search at the first bug. Under ICB the first
	// bug found is one with the minimum number of preemptions among all
	// bugs in the program.
	StopOnFirstBug bool
	// SampleEvery controls how often a coverage-curve point is recorded (in
	// executions); 0 means every execution.
	SampleEvery int
	// BPOR enables bounded partial-order reduction on the ICB search (see
	// bpor.go): sleep sets suppress re-exploration of already-covered
	// first-steps within a bound, and the blind next-bound expansion at
	// preemptible points is replaced by dependency-targeted backtracking
	// points plus the conservative points at the prior context switch that
	// preemption bounding requires for soundness. The explored execution
	// set shrinks while the per-bound trace coverage — and with it the bug
	// set, the ExecutionClasses count and the minimal-preemption first
	// sighting — is preserved; exact per-bound execution counts are not
	// (Theorem 1 counting experiments run with BPOR off). Ignored under CSB
	// (its switch cost is not the preemption cost the reduction's
	// backtracking prices) and by the baseline strategies.
	BPOR bool
	// StateCache enables the work-item table of Algorithm 1 (see Cache):
	// subtrees rooted at already-visited (state, decision) pairs are pruned.
	// Indispensable for exhaustive coverage runs; leave off when exact
	// per-bound execution counts are needed (Theorem 1 validation).
	// Ignored under CSB, whose table keys would need switches spent
	// rather than preemptions.
	StateCache bool
	// Sink receives the structured event stream of the search (package
	// obs); live counters (obs.Metrics) and schedule-space estimates
	// (package obs/estimate) are subscribers to it. nil (the default)
	// disables emission entirely; the engine then pays a single nil-check
	// per execution.
	Sink obs.Sink
	// Coverage, when non-nil, receives every resolved thread-scheduling
	// decision together with the preemption bound it ran under, feeding the
	// preemption-point coverage atlas (package obs/coverage). nil (the
	// default) leaves the sched-layer observation hook uninstalled.
	Coverage PointRecorder
	// Profiler, when non-nil, attaches the search profiler (package
	// obs/prof): per-execution replay/explore phase timing, sampled
	// fingerprint/race/cache sub-costs, per-bound redundancy accounting,
	// parallel contention counters, and time-to-first-bug records. One
	// profiler may be shared across many explorations (campaigns). nil (the
	// default) leaves every hook uninstalled; the engine then pays one
	// nil-check per execution and behaves identically to an unprofiled one.
	Profiler *prof.Profiler
	// TraceObserver, when non-nil, receives every execution's outcome with
	// full trace recording forced on, so each execution can be rendered as
	// a Chrome trace-event file (package obs/trace). Recording every trace
	// costs one event-log allocation per step; leave nil on hot exhaustive
	// runs.
	TraceObserver OutcomeObserver
	// Checkpoint, when non-nil, receives search-state snapshots: periodic
	// ones at execution boundaries (whenever Due reports true), one at every
	// bound barrier, and a final one when the search stops. nil (the
	// default) disables checkpointing; the engine then pays one nil-check
	// per execution boundary.
	Checkpoint CheckpointSink
	// Resume, when non-nil, restores a previously captured snapshot before
	// the first execution: the search re-enters Algorithm 1's loop at the
	// snapshot's bound with its remaining seed queue, coverage sets, bug
	// list and work-item table. The options must describe the same program
	// and configuration that produced the snapshot (see ValidateResume).
	Resume *SearchState
	// Stop, when non-nil, is polled at every execution boundary; setting it
	// stops the search cleanly (final checkpoint, partial Result), the
	// mechanism behind SIGINT/SIGTERM handling. In a parallel search the
	// same flag is shared by every worker.
	Stop *atomic.Bool
}

// PointRecorder accumulates preemption-point coverage: one call per
// resolved scheduling decision, attributed to the preemption bound the
// execution ran under (-1 for strategies without bound structure).
// Implemented by coverage.Recorder.
type PointRecorder interface {
	RecordPoint(bound int, pi sched.PointInfo)
}

// OutcomeObserver receives every execution's full outcome (trace recorded)
// right after it completes. execution is the 1-based execution index.
// Implemented by trace.DirWriter.
type OutcomeObserver interface {
	ObserveOutcome(execution int, out sched.Outcome)
}

// BugKind classifies a found bug.
type BugKind uint8

const (
	// BugDeadlock: no thread enabled while some are alive.
	BugDeadlock BugKind = iota
	// BugAssert: a modeled assertion failed.
	BugAssert
	// BugPanic: the program panicked.
	BugPanic
	// BugRace: the race detector reported a data race.
	BugRace
	// BugLivelock: an execution exceeded the step bound, impossible for a
	// terminating program.
	BugLivelock
)

var bugKindNames = [...]string{
	BugDeadlock: "deadlock",
	BugAssert:   "assertion failure",
	BugPanic:    "panic",
	BugRace:     "data race",
	BugLivelock: "livelock",
}

// String returns a human-readable kind.
func (k BugKind) String() string {
	if int(k) < len(bugKindNames) {
		return bugKindNames[k]
	}
	return "bug"
}

// Bug is one found defect with everything needed to reproduce it. The JSON
// tags serve the search checkpoint (SearchState), which round-trips the
// whole Result; command-line surfaces shape their own output documents.
type Bug struct {
	// Kind classifies the bug.
	Kind BugKind `json:"kind"`
	// Message is the assertion/panic/deadlock/race description.
	Message string `json:"message"`
	// Preemptions is the number of preempting context switches in the
	// exposing execution. Under ICB this is minimal over all ways to expose
	// bugs in the program explored so far.
	Preemptions int `json:"preemptions"`
	// ContextSwitches is the total number of context switches (the Dryad
	// bug of Fig. 3 takes 1 preemption but 6 nonpreempting switches).
	ContextSwitches int `json:"context_switches"`
	// Steps is the length of the exposing execution.
	Steps int `json:"steps"`
	// Execution is the 1-based index of the exposing execution.
	Execution int `json:"execution"`
	// Schedule replays the exposing execution exactly.
	Schedule sched.Schedule `json:"schedule"`
	// Count is the number of executions that exposed this same defect
	// (same kind and message); only the first one's schedule is kept.
	Count int `json:"count"`
}

// String renders a one-line bug summary.
func (b *Bug) String() string {
	return b.Kind.String() + " (preemptions=" + itoa(b.Preemptions) +
		", execution " + itoa(b.Execution) + "): " + b.Message
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// CoveragePoint is one sample of the coverage growth curve (Figures 2, 5
// and 6): after Executions executions, States distinct states had been
// visited.
type CoveragePoint struct {
	Executions int `json:"executions"`
	States     int `json:"states"`
}

// BoundCoverage records cumulative coverage at the completion of one
// preemption bound (Figures 1 and 4).
type BoundCoverage struct {
	// Bound is the completed preemption bound.
	Bound int `json:"bound"`
	// States is the cumulative number of distinct states visited by all
	// executions with at most Bound preemptions.
	States int `json:"states"`
	// Executions is the cumulative execution count.
	Executions int `json:"executions"`
}

// BoundStat records the cost of one completed preemption bound (or, for
// iterative depth bounding, one depth round): how many executions the
// bound took and how long it ran.
type BoundStat struct {
	// Bound is the bound the stats concern.
	Bound int `json:"bound"`
	// Executions is the number of executions run within this bound.
	Executions int `json:"executions"`
	// CumExecutions is the cumulative execution count at bound completion.
	CumExecutions int `json:"cum_executions"`
	// States is the cumulative distinct-state count at bound completion.
	States int `json:"states"`
	// Duration is the wall-clock time spent draining the bound.
	Duration time.Duration `json:"duration_ns"`
}

// Result summarizes an exploration. The JSON tags serve the search
// checkpoint (SearchState), which persists and restores the whole Result
// across process lives.
type Result struct {
	// Strategy is the name of the search strategy used.
	Strategy string `json:"strategy"`
	// Executions is the number of executions run.
	Executions int `json:"executions"`
	// Bugs lists the found bugs in discovery order.
	Bugs []Bug `json:"bugs,omitempty"`
	// States is the number of distinct visited states (happens-before
	// prefix fingerprints, §4.3).
	States int `json:"states"`
	// ExecutionClasses is the number of distinct complete-execution
	// fingerprints (partial-order equivalence classes of executions).
	ExecutionClasses int `json:"execution_classes"`
	// MaxSteps, MaxBlocking, MaxPreemptions are the K, B, c maxima of
	// Table 1 over all executions.
	MaxSteps       int `json:"max_steps"`
	MaxBlocking    int `json:"max_blocking"`
	MaxPreemptions int `json:"max_preemptions"`
	// BoundCompleted is the highest preemption bound fully explored: the
	// coverage guarantee "any remaining bug needs at least BoundCompleted+1
	// preemptions". -1 if no bound was completed. Only ICB sets this.
	BoundCompleted int `json:"bound_completed"`
	// Exhausted reports that the search space was fully explored.
	Exhausted bool `json:"exhausted"`
	// Curve is the coverage growth curve (cumulative states per execution).
	Curve []CoveragePoint `json:"curve,omitempty"`
	// BoundCurve is the per-bound cumulative coverage (ICB only).
	BoundCurve []BoundCoverage `json:"bound_curve,omitempty"`
	// Duration is the total wall-clock time of the exploration.
	Duration time.Duration `json:"duration_ns"`
	// CacheHits and CacheMisses count work-item-table lookups (zero when
	// StateCache is off). A hit is a pruned duplicate.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// BoundStats records per-bound execution counts and wall times, in
	// completion order (bounded strategies only).
	BoundStats []BoundStat `json:"bound_stats,omitempty"`
	// BPOR records that bounded partial-order reduction was active, so
	// result documents and repro bundles are never mistaken for plain-ICB
	// ones (execution counts are not comparable across the two).
	BPOR bool `json:"bpor,omitempty"`
	// BPORPruned is the number of work items the reduction suppressed
	// relative to blind expansion (net of the backtracking items it added
	// instead, floored at zero per bound). Each suppressed item is at least
	// one execution the search did not run.
	BPORPruned int64 `json:"bpor_pruned,omitempty"`
}

// FirstBug returns the first found bug, or nil.
func (r *Result) FirstBug() *Bug {
	if len(r.Bugs) == 0 {
		return nil
	}
	return &r.Bugs[0]
}
