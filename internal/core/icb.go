package core

import (
	"fmt"
	"time"

	"icb/internal/sched"
)

// ICB is the iterative context-bounding strategy of Algorithm 1: it
// explores every execution with c preemptions before any execution with
// c+1 preemptions. Work items are replay schedules; the recursive Search of
// the paper becomes an explicit local stack (its recursion along the
// running thread is the execution itself; its branching at blocking points
// is the stack).
//
// Guarantees (paper §1, §3):
//   - the first bug found is exposed by an execution with the minimum
//     number of preemptions over the whole program;
//   - when bound c completes, every execution with at most c preemptions
//     has been explored, so any remaining bug needs ≥ c+1 preemptions.
//
// ICB is the 1-worker case of the one search driver (see ParallelICB): the
// bound loop runs inline on the calling goroutine.
type ICB struct{}

// Name implements Strategy.
func (ICB) Name() string { return "icb" }

// Explore implements Strategy.
func (ICB) Explore(e *Engine) { drive(e, 1, preemptionCost, nil) }

// CSB is pure context-switch bounding: the ablation of the paper's central
// design choice. It enumerates executions in increasing order of TOTAL
// context switches, preempting or not, instead of preempting switches
// only: the same bound loop as ICB under a different cost function.
//
// The paper's §2 argument predicts exactly how this fails: a terminating
// execution needs some minimum number of nonpreempting switches just to
// let blocked threads finish (bound 0 cannot even run a second thread), so
// the frontier grows much faster per bug found, and bugs that ICB exposes
// at preemption bound 1 — like Dryad's Figure 3 use-after-free, whose
// trace has 6+ nonpreempting switches — only appear at switch bounds an
// order of magnitude higher. The ablation experiment
// (icb-bench -exp ablate) measures both effects. Options.MaxPreemptions is
// the switch bound; the work-item table and BPOR do not apply.
type CSB struct{}

// Name implements Strategy.
func (CSB) Name() string { return "csb" }

// Explore implements Strategy.
func (CSB) Explore(e *Engine) { drive(e, 1, switchCost, nil) }

// costModel is what makes a bound loop ICB or CSB: the price of each
// scheduling decision. A work item's bound is the total price of its
// decisions; the controller explores zero-cost decisions within the bound
// and defers cost-1 decisions to the next one.
type costModel struct {
	// name labels invariant violations.
	name string
	// price is the cost, 0 or 1, of scheduling t at the point info
	// describes.
	price func(info sched.PickInfo, t sched.TID) int
	// spent is the total cost of a completed execution as the scheduler
	// counted it, checked against the bound the execution ran at.
	spent func(out sched.Outcome) int
	// reduces reports that the work-item table and BPOR apply: both key
	// their pruning on preemptions spent, so only the preemption cost
	// uses them.
	reduces bool
}

// preemptionCost is ICB's: switching away from a still-enabled thread.
var preemptionCost = &costModel{
	name: "icb",
	price: func(info sched.PickInfo, t sched.TID) int {
		if info.PrevEnabled && t != info.Prev {
			return 1
		}
		return 0
	},
	spent:   func(out sched.Outcome) int { return out.Preemptions },
	reduces: true,
}

// switchCost is CSB's: any switch after the first pick, so a blocked or
// exited thread leaves the execution no zero-cost continuation.
var switchCost = &costModel{
	name: "csb",
	price: func(info sched.PickInfo, t sched.TID) int {
		if info.Prev != sched.NoTID && t != info.Prev {
			return 1
		}
		return 0
	},
	spent: func(out sched.Outcome) int { return out.ContextSwitches },
}

// newBoundController builds the controller that replays one work item at
// the given bound and routes the alternatives it generates: onLocal
// receives same-bound items, onNext items costing one more.
func newBoundController(e *Engine, cost *costModel, path sched.Schedule, bound int, onLocal, onNext func(sched.Schedule)) *boundController {
	ctrl := &boundController{
		path: path,
		cost: cost,
		// The extension phase appends one decision per scheduling point
		// past the replayed prefix; starting at the prefix length plus a
		// small headroom avoids the append-regrowth copies that
		// otherwise dominate the controller's allocations.
		cur:     make(sched.Schedule, 0, len(path)+16),
		onNext:  onNext,
		onLocal: onLocal,
	}
	if cost.reduces {
		ctrl.cache = e.Cache()
		if b := e.BPOR(); b != nil {
			ctrl.bpor = newBPORExec(b, bound)
		}
	}
	return ctrl
}

// finishItem applies the post-run bookkeeping one completed (not stopped-
// before-running) work item needs: the BPOR truncation fallback and flush,
// and the bound invariant.
func finishItem(ctrl *boundController, out sched.Outcome, bound int) {
	if out.Status == sched.StatusStopped {
		// Cut by the work-item cache: the subtree was already explored,
		// but the replayed prefix's scans may have queued backtracking
		// items that are not covered by it.
		if ctrl.bpor != nil {
			ctrl.bporFlush()
		}
		return
	}
	if ctrl.bpor != nil {
		switch out.Status {
		case sched.StatusAssertFailed, sched.StatusPanic, sched.StatusStepLimit:
			// The execution was truncated before the surviving threads'
			// remaining steps could run their backtracking scans; fall
			// back to blind branching along it (see bporExpandTruncated).
			ctrl.bporExpandTruncated()
		}
		ctrl.bporFlush()
	}
	if spent := ctrl.cost.spent(out); spent != bound {
		// Under BPOR a backtracking work item can cost fewer preemptions
		// than the bound being drained (reversing a race may remove the
		// preemption the original path spent); without it each bound's
		// work is generated at exactly that bound.
		if ctrl.bpor == nil || spent > bound {
			panic(fmt.Sprintf("%s: execution at bound %d cost %d (schedule %v)",
				ctrl.cost.name, bound, spent, out.Decisions))
		}
	}
}

// boundController replays a schedule prefix and then follows the
// zero-cost policy: take the first enabled thread the cost model prices
// at zero (for ICB the running thread while it is enabled, any thread
// once it blocks or exits), record the other zero-cost threads as local
// alternatives and the cost-1 threads as next-bound ones, and cut the
// execution when no zero-cost thread exists.
type boundController struct {
	path  sched.Schedule
	pos   int
	cur   sched.Schedule
	cost  *costModel
	cache *Cache
	// spent is the cost of the decisions along cur, including the
	// replayed prefix: the work-item table is keyed by (state, decision,
	// preemptions spent) so that paths with different remaining budgets
	// are never merged (see the Cache soundness note).
	spent int

	onNext  func(sched.Schedule)
	onLocal func(sched.Schedule)

	// bpor, when non-nil, activates bounded partial-order reduction for
	// this execution: sleep sets and targeted backtracking replace the
	// blind expansion of the extension phase (see bpor.go).
	bpor *bporExec

	// profClock, set by a profiling engine before the run, arms the
	// replay/explore split: replayDoneAt is stamped once, at the first
	// decision past the replayed prefix (zero when the execution never
	// left it). One boolean check per decision when profiling is off.
	profClock    bool
	replayDoneAt time.Time
}

// markExplore stamps the replay→explore transition on the first
// extension-phase decision of a profiled execution.
func (c *boundController) markExplore() {
	if c.profClock && c.replayDoneAt.IsZero() {
		c.replayDoneAt = time.Now()
	}
}

// take registers the decision about to be taken at p spent; a false
// result cuts the execution (the Algorithm 1 table guard).
func (c *boundController) take(d sched.Decision, p int) bool {
	return c.cache == nil || c.cache.TryTake(d, p)
}

// push reports whether an alternative at p spent should be enqueued
// (skipping duplicates already registered in the table).
func (c *boundController) push(d sched.Decision, p int) bool {
	return c.cache == nil || c.cache.TryTake(d, p)
}

// PickThread implements sched.Controller.
func (c *boundController) PickThread(info sched.PickInfo) (sched.TID, bool) {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		if d.Kind != sched.DecisionThread {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: "a scheduling point"})
		}
		if !info.IsEnabled(d.Thread) {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("enabled set %v", info.Enabled)})
		}
		if c.bpor != nil {
			// Before the cost increment: recorded point costs are the
			// preemptions spent before this decision.
			c.bporReplayThread(info, d.Thread)
		}
		c.spent += c.cost.price(info, d.Thread)
		c.cur = append(c.cur, d)
		if c.bpor != nil {
			c.bpor.note(d)
		}
		return d.Thread, true
	}
	c.markExplore()
	if c.bpor != nil {
		return c.bporExtendThread(info)
	}
	// Lines 26–37 of Algorithm 1: under ICB the running thread continues
	// while it is enabled and every other thread costs a preemption,
	// deferred to the next bound; once it yields (blocks or exits) every
	// enabled thread is free and explored within the current bound.
	pick := sched.NoTID
	for _, u := range info.Enabled {
		if c.cost.price(info, u) == 0 {
			pick = u
			break
		}
	}
	if pick == sched.NoTID {
		// Every continuation costs one more than this execution may
		// spend: defer them all and cut.
		for _, u := range info.Enabled {
			if c.push(sched.ThreadDecision(u), c.spent+1) {
				c.onNext(c.cur.Extend(sched.ThreadDecision(u)))
			}
		}
		return sched.NoTID, false
	}
	if !c.take(sched.ThreadDecision(pick), c.spent) {
		return sched.NoTID, false
	}
	for _, u := range info.Enabled {
		if u == pick {
			continue
		}
		cost := c.cost.price(info, u)
		if c.push(sched.ThreadDecision(u), c.spent+cost) {
			if cost == 0 {
				c.onLocal(c.cur.Extend(sched.ThreadDecision(u)))
			} else {
				c.onNext(c.cur.Extend(sched.ThreadDecision(u)))
			}
		}
	}
	c.cur = append(c.cur, sched.ThreadDecision(pick))
	return pick, true
}

// PickData implements sched.Controller: data choices branch within the
// current bound (they are not context switches).
func (c *boundController) PickData(t sched.TID, n int) int {
	if c.pos < len(c.path) {
		d := c.path[c.pos]
		c.pos++
		if d.Kind != sched.DecisionData || d.Data < 0 || d.Data >= n {
			panic(&sched.ReplayError{Pos: c.pos - 1, Want: d, Got: fmt.Sprintf("a data choice over %d values", n)})
		}
		c.cur = append(c.cur, d)
		if c.bpor != nil {
			c.bpor.note(d)
		}
		return d.Data
	}
	c.markExplore()
	// A choose point in the extension phase always follows a freshly taken
	// thread decision, so registering value 0 cannot fail; register it so
	// other paths reaching an equivalent state are cut at their preceding
	// thread pick.
	c.take(sched.DataDecision(0), c.spent)
	for v := 1; v < n; v++ {
		if c.push(sched.DataDecision(v), c.spent) {
			c.onLocal(c.cur.Extend(sched.DataDecision(v)))
		}
	}
	c.cur = append(c.cur, sched.DataDecision(0))
	if c.bpor != nil {
		// Data decisions extend the registration-key prefix (they are part
		// of the decision sequence) but are never scheduling points of the
		// reduction: no bporPoint, no sleep interaction.
		c.bpor.note(sched.DataDecision(0))
	}
	return 0
}
