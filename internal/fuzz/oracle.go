package fuzz

import (
	"errors"
	"fmt"
	"sort"

	"icb/internal/core"
	"icb/internal/obs/prof"
	"icb/internal/race"
	"icb/internal/sched"
)

// Limits bounds the oracle's brute-force enumeration so that an
// accidentally huge generated program is skipped instead of hanging the
// campaign.
type Limits struct {
	// MaxExecutions aborts the enumeration (ErrTooBig) beyond this many
	// complete executions. Default 6000.
	MaxExecutions int
	// MaxSteps is the per-execution step bound passed to the runtime.
	// Generated programs are straight-line, so hitting it would be a
	// harness bug; the default (2000) is far above any generated program.
	MaxSteps int
	// Profiler, when non-nil, attaches the search profiler to every
	// strategy exploration the checker runs (the brute-force oracle itself
	// stays unobserved — it is the ground truth, not the system under
	// test). It rides in Limits because Limits is the one configuration
	// value that reaches every checker exploration.
	Profiler *prof.Profiler
}

func (l *Limits) fill() {
	if l.MaxExecutions <= 0 {
		l.MaxExecutions = 6000
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = 2000
	}
}

// ErrTooBig reports that a program's schedule space exceeded
// Limits.MaxExecutions; the campaign skips such programs (and counts
// them).
var ErrTooBig = errors.New("fuzz: schedule space exceeds oracle limit")

// BugID identifies a defect the way the engine deduplicates them: by kind
// and message.
type BugID struct {
	Kind core.BugKind
	Msg  string
}

func (b BugID) String() string { return fmt.Sprintf("%v: %s", b.Kind, b.Msg) }

// BugTruth is the ground truth about one defect.
type BugTruth struct {
	// Count is the number of complete executions exposing the defect.
	Count int
	// MinPreemptions is the minimum preemption count over all exposing
	// executions — the quantity ICB's minimal-first guarantee is about.
	MinPreemptions int
	// Witness is the decision log of one minimal-preemption exposing
	// execution.
	Witness sched.Schedule
}

// Truth is the brute-force ground truth for one program: every schedule
// enumerated, every bug classified exactly as the engine classifies them.
type Truth struct {
	// Executions is the total number of complete executions. The schedule
	// tree is explored by branching on every alternative at every decision
	// point with a deterministic tail, so each complete execution is
	// enumerated exactly once — directly comparable to an uncached
	// unbounded DFS's execution count.
	Executions int
	// Finals maps each reachable normal-termination final state (the
	// spec's canonical snapshot) to how many executions end in it.
	Finals map[string]int
	// Bugs is the complete defect set.
	Bugs map[BugID]*BugTruth
	// MinPreemptions is the global minimum preemption count over all buggy
	// executions, or -1 when the program has no bugs.
	MinPreemptions int
	// MaxPreemptions is the maximum preemption count over all executions:
	// the bound at which an exhaustive ICB search terminates.
	MaxPreemptions int
	// DetectorDisagreements records executions on which the vector-clock
	// and Goldilocks detectors disagreed (racy verdict or report set); the
	// checker turns any entry into a discrepancy.
	DetectorDisagreements []string
}

// SortedBugs returns the bug IDs in deterministic (kind, message) order.
func (tr *Truth) SortedBugs() []BugID {
	ids := make([]BugID, 0, len(tr.Bugs))
	for id := range tr.Bugs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Kind != ids[j].Kind {
			return ids[i].Kind < ids[j].Kind
		}
		return ids[i].Msg < ids[j].Msg
	})
	return ids
}

// BugsWithin returns the bugs whose minimal preemption count is at most c,
// in deterministic order.
func (tr *Truth) BugsWithin(c int) []BugID {
	var ids []BugID
	for _, id := range tr.SortedBugs() {
		if tr.Bugs[id].MinPreemptions <= c {
			ids = append(ids, id)
		}
	}
	return ids
}

// enumController drives one execution of the brute-force enumeration: it
// replays a prefix, then takes the first alternative at every decision
// point past it while reporting every other alternative as a new prefix.
// Unlike the ICB controller it branches at *every* scheduling point —
// preempting or not — so the induced tree is the full schedule space.
type enumController struct {
	prefix sched.Schedule
	pos    int
	cur    sched.Schedule
	emit   func(sched.Schedule)
}

// PickThread implements sched.Controller.
func (c *enumController) PickThread(info sched.PickInfo) (sched.TID, bool) {
	if c.pos < len(c.prefix) {
		d := c.prefix[c.pos]
		c.pos++
		if d.Kind != sched.DecisionThread || !info.IsEnabled(d.Thread) {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("enabled set %v", info.Enabled)})
		}
		c.cur = append(c.cur, d)
		return d.Thread, true
	}
	for _, u := range info.Enabled[1:] {
		c.emit(c.cur.Extend(sched.ThreadDecision(u)))
	}
	pick := info.Enabled[0]
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	return pick, true
}

// PickData implements sched.Controller.
func (c *enumController) PickData(t sched.TID, n int) int {
	if c.pos < len(c.prefix) {
		d := c.prefix[c.pos]
		c.pos++
		if d.Kind != sched.DecisionData || d.Data < 0 || d.Data >= n {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("a data choice over %d values", n)})
		}
		c.cur = append(c.cur, d)
		return d.Data
	}
	for v := 1; v < n; v++ {
		c.emit(c.cur.Extend(sched.DataDecision(v)))
	}
	c.cur = append(c.cur, sched.DataDecision(0))
	return 0
}

// ComputeTruth enumerates every schedule of the spec's program and returns
// the ground truth. Both race detectors observe every execution; bugs are
// classified exactly as core.Engine.recordBugs classifies them (outcome
// status via core.ClassifyOutcome, plus the first vector-clock race report
// per racy execution), so the truth's bug identities are directly
// comparable to Result.Bugs.
func ComputeTruth(spec *Spec, lim Limits) (*Truth, error) {
	lim.fill()
	var final string
	prog := spec.Program(&final)
	vc := race.NewDetector()
	gl := race.NewGoldilocks()

	tr := &Truth{
		Finals:         map[string]int{},
		Bugs:           map[BugID]*BugTruth{},
		MinPreemptions: -1,
	}

	// Depth-first over prefixes; each popped prefix completes into exactly
	// one execution and pushes the alternatives branching off it.
	stack := []sched.Schedule{nil}
	for len(stack) > 0 {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tr.Executions >= lim.MaxExecutions {
			return nil, fmt.Errorf("%w (%d executions, limit %d)", ErrTooBig, tr.Executions, lim.MaxExecutions)
		}
		ctrl := &enumController{
			prefix: prefix,
			cur:    make(sched.Schedule, 0, len(prefix)+16),
			emit:   func(alt sched.Schedule) { stack = append(stack, alt) },
		}
		vc.Reset()
		gl.Reset()
		out := sched.Run(prog, ctrl, sched.Config{
			MaxSteps:  lim.MaxSteps,
			Observers: []sched.Observer{vc, gl},
		})
		if out.Status == sched.StatusReplayDiverged {
			return nil, fmt.Errorf("fuzz oracle: generated program is nondeterministic: %s", out.Message)
		}
		tr.Executions++
		if out.Preemptions > tr.MaxPreemptions {
			tr.MaxPreemptions = out.Preemptions
		}
		if out.Status == sched.StatusTerminated {
			tr.Finals[final]++
		}
		if d := detectorDelta(vc, gl); d != "" {
			tr.DetectorDisagreements = append(tr.DetectorDisagreements,
				fmt.Sprintf("schedule %q: %s", out.Decisions, d))
		}
		if kind, msg, ok := core.ClassifyOutcome(out); ok {
			tr.record(BugID{kind, msg}, out)
		}
		if vc.Racy() {
			tr.record(BugID{core.BugRace, vc.Reports()[0].String()}, out)
		}
	}

	for _, bt := range tr.Bugs {
		if tr.MinPreemptions < 0 || bt.MinPreemptions < tr.MinPreemptions {
			tr.MinPreemptions = bt.MinPreemptions
		}
	}
	return tr, nil
}

// record files one exposing execution of a defect.
func (tr *Truth) record(id BugID, out sched.Outcome) {
	bt := tr.Bugs[id]
	if bt == nil {
		bt = &BugTruth{MinPreemptions: out.Preemptions, Witness: out.Decisions.Clone()}
		tr.Bugs[id] = bt
	} else if out.Preemptions < bt.MinPreemptions {
		bt.MinPreemptions = out.Preemptions
		bt.Witness = out.Decisions.Clone()
	}
	bt.Count++
}

// detectorDelta compares the two detectors' verdicts on one execution;
// empty means agreement. Both are precise happens-before detectors, but
// only up to the first race: after one fires, the detectors keep tracking
// on deliberately different internal representations (vector clocks vs
// lockset transfer), so their follow-on reports legitimately diverge — a
// generated program with two independent racy pairs had the vector-clock
// detector file three reports to Goldilocks's two, with the first report
// identical. The harness therefore requires agreement on the racy verdict
// and on the first report (the one the engine files as the bug), nothing
// more.
func detectorDelta(vc *race.Detector, gl *race.Goldilocks) string {
	if vc.Racy() != gl.Racy() {
		return fmt.Sprintf("vector-clock racy=%v, goldilocks racy=%v", vc.Racy(), gl.Racy())
	}
	if !vc.Racy() {
		return ""
	}
	vr := vc.Reports()[0].String()
	gr := gl.Reports()[0].String()
	if vr != gr {
		return fmt.Sprintf("vector-clock first report %q, goldilocks first report %q", vr, gr)
	}
	return ""
}
