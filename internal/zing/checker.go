// Package zing is the explicit-state model checker of the reproduction,
// standing in for ZING (§4): it checks compiled ZML models (package zml)
// whose states are first-class values, runs the iterative context-bounding
// algorithm literally as printed in Algorithm 1 — two queues of
// (state, tid) work items, a recursive Search, and the optional visited
// table — and also provides a depth-first search with state caching for
// computing full-state-space denominators (Figure 4).
//
// Unlike the stateless engine of package core, states here are stored and
// revisits are pruned exactly, so cyclic state spaces (spin loops, retry
// loops) are handled, which is the capability the paper attributes to
// ZING.
package zing

import (
	"fmt"
	"time"

	"icb/internal/obs"
	"icb/internal/zml"
)

// BugKind classifies a found defect.
type BugKind uint8

const (
	// BugAssert is a violated assert.
	BugAssert BugKind = iota
	// BugRuntime is a runtime error (index out of range, division by zero,
	// bad mutex usage).
	BugRuntime
	// BugDeadlock means live threads exist but none is enabled.
	BugDeadlock
)

// String names the kind.
func (k BugKind) String() string {
	switch k {
	case BugAssert:
		return "assertion failure"
	case BugRuntime:
		return "runtime error"
	case BugDeadlock:
		return "deadlock"
	}
	return "bug"
}

// Bug is one found defect.
type Bug struct {
	Kind BugKind
	Msg  string
	// Preemptions is the preemption count of the exposing path (the bound
	// at which ICB found it; 0 for DFS, which does not track preemptions).
	Preemptions int
	// Path is the replayable schedule that exposes the bug (ICB only): the
	// sequence of (thread, choice) steps from the initial state.
	Path []PathStep
}

// PathStep is one decision of an explicit-state repro path.
type PathStep struct {
	Tid    int
	Choice int64
}

// PathString renders a path compactly ("t0 t1 t1:c2 ..." where :cN marks a
// data choice).
func PathString(path []PathStep) string {
	var b []byte
	for i, st := range path {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("t%d", st.Tid)...)
		if st.Choice > 0 {
			b = append(b, fmt.Sprintf(":c%d", st.Choice)...)
		}
	}
	return string(b)
}

// ReplayPath re-executes a repro path from the initial state, returning
// the states traversed and the failure it ends in (nil if it no longer
// fails, e.g. for a path ending in deadlock, where the final state is the
// deadlocked one).
func ReplayPath(p *zml.Program, path []PathStep) ([]*zml.State, *zml.Failure) {
	s, fail := p.NewState()
	if fail != nil {
		return nil, fail
	}
	states := []*zml.State{s}
	for _, st := range path {
		s = s.Clone()
		if fail := p.Step(s, st.Tid, st.Choice); fail != nil {
			return states, fail
		}
		states = append(states, s)
	}
	return states, nil
}

// String renders a summary.
func (b *Bug) String() string {
	return fmt.Sprintf("%s (preemptions=%d): %s", b.Kind, b.Preemptions, b.Msg)
}

// BoundCoverage is one per-bound coverage sample (Figure 4).
type BoundCoverage struct {
	Bound  int
	States int
	Items  int
}

// Options configures a check.
type Options struct {
	// MaxPreemptions bounds the ICB search (negative: run to exhaustion).
	MaxPreemptions int
	// MaxItems caps the number of work items processed (0 = unlimited).
	MaxItems int
	// StopOnFirstBug halts at the first defect.
	StopOnFirstBug bool
	// NoTable disables the visited-work-item table. Only safe for acyclic
	// state spaces; the table is on by default, as in ZING.
	NoTable bool
	// Sink receives the structured event stream of the check (package obs).
	// The explicit-state checker's execution unit is one work item, so
	// one ExecutionEvent is emitted per item. nil disables emission.
	Sink obs.Sink
}

// Result summarizes a check.
type Result struct {
	// States is the number of distinct visited states.
	States int
	// Items is the number of work items executed.
	Items int
	// Bugs lists found defects in discovery order.
	Bugs []Bug
	// BoundCompleted is the highest fully-explored preemption bound (-1 if
	// none; ICB only).
	BoundCompleted int
	// BoundCurve is the per-bound cumulative coverage (ICB only).
	BoundCurve []BoundCoverage
	// Exhausted reports a complete search.
	Exhausted bool
	// MaxSteps is the maximum path depth reached (the K statistic of
	// Table 1), MaxBlocking the maximum number of potentially-blocking
	// steps along a path (B), and MaxPreemptions the maximum preemption
	// count of any explored work item (c).
	MaxSteps       int
	MaxBlocking    int
	MaxPreemptions int
	// Duration is the total wall-clock time of the check.
	Duration time.Duration
}

// FirstBug returns the first bug, or nil.
func (r *Result) FirstBug() *Bug {
	if len(r.Bugs) == 0 {
		return nil
	}
	return &r.Bugs[0]
}

// workItem is the WorkItem of Algorithm 1, extended with the data choice
// needed when the thread is parked at a choose, and with its preemption
// count for reporting.
type workItem struct {
	state  *zml.State
	tid    int
	choice int64
	np     int
	depth  int        // steps along the path to this item
	blocks int        // potentially-blocking steps along the path
	path   []PathStep // decisions leading to this item's state
}

// extend returns path + one step, never sharing the backing array.
func extend(path []PathStep, st PathStep) []PathStep {
	out := make([]PathStep, len(path)+1)
	copy(out, path)
	out[len(path)] = st
	return out
}

// key is the table key of a work item under a program (canonical heap).
func itemKey(p *zml.Program, w workItem) string {
	return fmt.Sprintf("%d.%d.", w.tid, w.choice) + p.StateKey(w.state)
}

// checker carries the search state.
type checker struct {
	prog    *zml.Program
	opt     Options
	visited map[string]struct{} // distinct states (coverage)
	table   map[string]struct{} // work-item table (Algorithm 1's table)
	next    []workItem          // nextWorkQueue
	res     Result
	stop    bool
	// itemEv is the reused per-item event, so an attached sink costs no
	// allocation per item.
	itemEv obs.ExecutionEvent
}

// CheckICB model-checks the program with iterative context bounding
// (Algorithm 1).
func CheckICB(p *zml.Program, opt Options) (res Result) {
	start := time.Now()
	c := &checker{
		prog:    p,
		opt:     opt,
		visited: make(map[string]struct{}),
	}
	defer func() {
		res.Duration = time.Since(start)
		if opt.Sink != nil {
			opt.Sink.Emit(&obs.SearchEvent{
				Strategy:       "zing-icb",
				Executions:     res.Items,
				States:         res.States,
				Bugs:           len(res.Bugs),
				BoundCompleted: res.BoundCompleted,
				Exhausted:      res.Exhausted,
				DurationNS:     time.Since(start).Nanoseconds(),
			})
		}
	}()
	if !opt.NoTable {
		c.table = make(map[string]struct{})
	}
	c.res.BoundCompleted = -1

	s0, fail := p.NewState()
	if fail != nil {
		c.fail(fail, 0, nil)
		return c.res
	}
	c.countState(s0)

	// Lines 6–8: one work item per thread enabled in the initial state
	// (one per choice value for a thread parked at a choose).
	var workQueue []workItem
	for tid := range s0.Threads {
		if !p.Enabled(s0, tid) {
			continue
		}
		if n := p.PendingChoose(s0, tid); n > 0 {
			for v := int64(0); v < n; v++ {
				workQueue = append(workQueue, workItem{state: s0, tid: tid, choice: v})
			}
			continue
		}
		workQueue = append(workQueue, workItem{state: s0, tid: tid})
	}

	// Lines 9–21: drain the current bound, then move to the next.
	currBound := 0
	for {
		boundStart := time.Now()
		if opt.Sink != nil {
			opt.Sink.Emit(&obs.BoundStart{
				Bound:      currBound,
				Queue:      len(workQueue),
				Executions: c.res.Items,
				States:     len(c.visited),
			})
		}
		for i := 0; i < len(workQueue) && !c.stop; i++ {
			c.search(workQueue[i])
		}
		if c.stop {
			return c.res
		}
		c.res.BoundCompleted = currBound
		c.res.BoundCurve = append(c.res.BoundCurve, BoundCoverage{
			Bound:  currBound,
			States: len(c.visited),
			Items:  c.res.Items,
		})
		if opt.Sink != nil {
			opt.Sink.Emit(&obs.BoundComplete{
				Bound:      currBound,
				Frontier:   len(c.next),
				Executions: c.res.Items,
				States:     len(c.visited),
				DurationNS: time.Since(boundStart).Nanoseconds(),
			})
		}
		if len(c.next) == 0 {
			c.res.Exhausted = true
			return c.res
		}
		if opt.MaxPreemptions >= 0 && currBound >= opt.MaxPreemptions {
			return c.res
		}
		currBound++
		workQueue = c.next
		c.next = nil
	}
}

// search is the Search procedure of Algorithm 1 (lines 22–39), extended
// with choose expansion.
func (c *checker) search(w workItem) {
	if c.stop {
		return
	}
	if c.table != nil {
		k := itemKey(c.prog, w)
		if _, seen := c.table[k]; seen {
			return
		}
		c.table[k] = struct{}{}
	}
	if c.opt.MaxItems > 0 && c.res.Items >= c.opt.MaxItems {
		c.stop = true
		return
	}
	c.res.Items++
	if c.opt.Sink != nil {
		c.itemEv = obs.ExecutionEvent{
			Execution:   c.res.Items,
			Status:      "item",
			Steps:       w.depth,
			Preemptions: w.np,
			States:      len(c.visited),
			Bound:       w.np,
			Frontier:    len(c.next),
		}
		c.opt.Sink.Emit(&c.itemEv)
	}

	// Line 25: s := w.state.Execute(w.tid).
	blocking := c.prog.PendingBlocking(w.state, w.tid)
	s := w.state.Clone()
	if fail := c.prog.Step(s, w.tid, w.choice); fail != nil {
		c.fail(fail, w.np, extend(w.path, PathStep{Tid: w.tid, Choice: w.choice}))
		return
	}
	c.countState(s)
	newPath := extend(w.path, PathStep{Tid: w.tid, Choice: w.choice})
	depth, blocks := w.depth+1, w.blocks
	if blocking {
		blocks++
	}
	if depth > c.res.MaxSteps {
		c.res.MaxSteps = depth
	}
	if blocks > c.res.MaxBlocking {
		c.res.MaxBlocking = blocks
	}
	if w.np > c.res.MaxPreemptions {
		c.res.MaxPreemptions = w.np
	}

	// A thread parked at a choose keeps running: expand the data choice
	// within the current bound (it is not a context switch).
	if n := c.prog.PendingChoose(s, w.tid); n > 0 {
		for v := int64(0); v < n; v++ {
			c.search(workItem{state: s, tid: w.tid, choice: v, np: w.np, depth: depth, blocks: blocks, path: newPath})
		}
		return
	}

	if s.Alive() == 0 {
		// Terminating execution.
		return
	}
	if c.prog.Deadlocked(s) {
		c.bug(Bug{Kind: BugDeadlock, Msg: c.prog.DeadlockMessage(s), Preemptions: w.np, Path: newPath})
		return
	}

	if c.prog.Enabled(s, w.tid) {
		// Lines 26–32: continue w.tid in this bound; any other enabled
		// thread costs a preemption.
		c.search(workItem{state: s, tid: w.tid, np: w.np, depth: depth, blocks: blocks, path: newPath})
		for tid := range s.Threads {
			if tid != w.tid && c.prog.Enabled(s, tid) {
				c.next = append(c.next, workItem{state: s, tid: tid, np: w.np + 1, depth: depth, blocks: blocks, path: newPath})
			}
		}
		return
	}
	// Lines 33–37: w.tid yielded; every enabled thread is free.
	for tid := range s.Threads {
		if c.prog.Enabled(s, tid) {
			c.search(workItem{state: s, tid: tid, np: w.np, depth: depth, blocks: blocks, path: newPath})
		}
	}
}

func (c *checker) countState(s *zml.State) {
	c.visited[c.prog.StateKey(s)] = struct{}{}
	c.res.States = len(c.visited)
}

func (c *checker) fail(f *zml.Failure, np int, path []PathStep) {
	kind := BugRuntime
	if f.Kind == zml.FailAssert {
		kind = BugAssert
	}
	c.bug(Bug{Kind: kind, Msg: f.Error(), Preemptions: np, Path: path})
}

func (c *checker) bug(b Bug) {
	c.res.Bugs = append(c.res.Bugs, b)
	if c.opt.Sink != nil {
		c.opt.Sink.Emit(&obs.BugEvent{
			Kind:        b.Kind.String(),
			Message:     b.Msg,
			Preemptions: b.Preemptions,
			Execution:   c.res.Items,
		})
	}
	if c.opt.StopOnFirstBug {
		c.stop = true
	}
}

// CheckDFS explores the full state space depth-first with state caching,
// ignoring preemption structure — the baseline denominator for Figure 4.
func CheckDFS(p *zml.Program, opt Options) (res Result) {
	start := time.Now()
	res = Result{BoundCompleted: -1}
	defer func() {
		res.Duration = time.Since(start)
		if opt.Sink != nil {
			opt.Sink.Emit(&obs.SearchEvent{
				Strategy:       "zing-dfs",
				Executions:     res.Items,
				States:         res.States,
				Bugs:           len(res.Bugs),
				BoundCompleted: res.BoundCompleted,
				Exhausted:      res.Exhausted,
				DurationNS:     time.Since(start).Nanoseconds(),
			})
		}
	}()
	s0, fail := p.NewState()
	if fail != nil {
		res.Bugs = append(res.Bugs, Bug{Kind: failKind(fail), Msg: fail.Error()})
		return res
	}
	visited := map[string]struct{}{p.StateKey(s0): {}}

	type frame struct {
		state  *zml.State
		tid    int
		choice int64
	}
	var stack []frame
	expand := func(s *zml.State) bool {
		any := false
		for tid := range s.Threads {
			if !p.Enabled(s, tid) {
				continue
			}
			any = true
			if n := p.PendingChoose(s, tid); n > 0 {
				for v := int64(0); v < n; v++ {
					stack = append(stack, frame{state: s, tid: tid, choice: v})
				}
				continue
			}
			stack = append(stack, frame{state: s, tid: tid})
		}
		return any
	}
	if live := s0.Alive(); live > 0 && !expand(s0) {
		res.Bugs = append(res.Bugs, Bug{Kind: BugDeadlock, Msg: p.DeadlockMessage(s0)})
		if opt.StopOnFirstBug {
			return res
		}
	}
	for len(stack) > 0 {
		if opt.MaxItems > 0 && res.Items >= opt.MaxItems {
			return res
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Items++
		s := f.state.Clone()
		if fail := p.Step(s, f.tid, f.choice); fail != nil {
			res.Bugs = append(res.Bugs, Bug{Kind: failKind(fail), Msg: fail.Error()})
			if opt.StopOnFirstBug {
				return res
			}
			continue
		}
		k := p.StateKey(s)
		if _, seen := visited[k]; seen {
			continue
		}
		visited[k] = struct{}{}
		res.States = len(visited)
		if s.Alive() == 0 {
			continue
		}
		if !expand(s) {
			res.Bugs = append(res.Bugs, Bug{Kind: BugDeadlock, Msg: p.DeadlockMessage(s)})
			if opt.StopOnFirstBug {
				return res
			}
		}
	}
	res.States = len(visited)
	res.Exhausted = true
	return res
}

func failKind(f *zml.Failure) BugKind {
	if f.Kind == zml.FailAssert {
		return BugAssert
	}
	return BugRuntime
}
