package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Progress is a rate-limited terminal reporter in the spirit of JPF's
// SearchMonitor: at most one progress line per interval on the execution
// path, plus unconditional lines at bound transitions, bug discoveries,
// and search completion. Output is plain text on one line per report,
// suitable for stderr while results go to stdout.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
	now   func() time.Time // injectable clock for tests

	start     time.Time
	last      time.Time
	lastExecs int

	cache CacheEvent
	est   EstimateSource
}

// DefaultInterval is the progress reporting period when none is given.
const DefaultInterval = time.Second

// NewProgress returns a Progress writing to w at most once per interval
// (DefaultInterval if every <= 0).
func NewProgress(w io.Writer, every time.Duration) *Progress {
	if every <= 0 {
		every = DefaultInterval
	}
	now := time.Now()
	return &Progress{w: w, every: every, now: time.Now, start: now, last: now}
}

// SetClock replaces the reporter's time source and restarts its timers;
// tests use it to drive the rate limiter deterministically.
func (p *Progress) SetClock(now func() time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = now
	p.start = now()
	p.last = p.start
}

// SetEstimator attaches a schedule-space estimator; per-execution progress
// lines then carry the current bound's completion estimate and ETA.
func (p *Progress) SetEstimator(src EstimateSource) {
	p.mu.Lock()
	p.est = src
	p.mu.Unlock()
}

// Emit implements Sink. Executions print a progress line when at least one
// interval elapsed since the previous one; cache hits are folded into the
// next progress line; bound transitions, bugs, campaign reports, final
// checkpoints, resumes, the reduction's accounting and search completion
// print unconditionally; profiles, ledger records and fleet events are
// terminal artifacts, not progress signals, and print nothing.
func (p *Progress) Emit(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev := ev.(type) {
	case *ExecutionEvent:
		now := p.now()
		if now.Sub(p.last) < p.every {
			return
		}
		rate := float64(ev.Execution-p.lastExecs) / now.Sub(p.last).Seconds()
		p.last, p.lastExecs = now, ev.Execution
		fmt.Fprintf(p.w, "[search %s] execs=%d (%.0f/s) bound=%d frontier=%d states=%d classes=%d cache=%d/%d%s\n",
			fmtDur(now.Sub(p.start)), ev.Execution, rate, ev.Bound, ev.Frontier,
			ev.States, ev.Classes, p.cache.Hits, p.cache.Hits+p.cache.Misses,
			p.estimateSuffix(ev.Bound))
	case *BoundStart:
		fmt.Fprintf(p.w, "[bound %d] start: queue=%d execs=%d states=%d\n",
			ev.Bound, ev.Queue, ev.Executions, ev.States)
	case *BoundComplete:
		fmt.Fprintf(p.w, "[bound %d] complete in %s: execs=%d states=%d next-frontier=%d\n",
			ev.Bound, fmtDur(time.Duration(ev.DurationNS)), ev.Executions, ev.States, ev.Frontier)
	case *BugEvent:
		fmt.Fprintf(p.w, "[bug] %s (preemptions=%d, execution %d): %s\n",
			ev.Kind, ev.Preemptions, ev.Execution, ev.Message)
	case *CacheEvent:
		p.cache = *ev
	case *CampaignEvent:
		state := ""
		if ev.Done {
			state = " done"
		}
		fmt.Fprintf(p.w, "[campaign%s] programs=%d buggy=%d skipped=%d execs=%d (%.0f/s) discrepancies=%d\n",
			state, ev.Programs, ev.Buggy, ev.Skipped, ev.Executions, ev.ExecsPerSec, ev.Discrepancies)
	case *CheckpointEvent:
		// Only final checkpoints are worth a line: the periodic ones would
		// swamp the report on a short checkpoint interval.
		if ev.Final {
			fmt.Fprintf(p.w, "[checkpoint] #%d bound=%d execs=%d seeds=%d next=%d (final)\n",
				ev.Seq, ev.Bound, ev.Executions, ev.SeedQueue, ev.NextWork)
		}
	case *ResumeEvent:
		fmt.Fprintf(p.w, "[resume] from %s bound=%d execs=%d seeds=%d next=%d bugs=%d\n",
			ev.Dir, ev.Bound, ev.Executions, ev.SeedQueue, ev.NextWork, ev.Bugs)
	case *BPORStatsEvent:
		fmt.Fprintf(p.w, "[bpor] execs=%d pruned=%d (suppressed=%d emitted=%d) sleep-blocked=%d seen=%d\n",
			ev.Executions, ev.Pruned, ev.Suppressed, ev.Emitted, ev.SleepBlocked, ev.SeenSize)
	case *SearchEvent:
		// When state caching ran (any table lookups at all), the final line
		// carries the hit/miss totals so the one-line summary of a long
		// search records how much the table pruned.
		cache := ""
		if ev.CacheHits+ev.CacheMisses > 0 {
			cache = fmt.Sprintf(" cache=%d/%d", ev.CacheHits, ev.CacheHits+ev.CacheMisses)
		}
		fmt.Fprintf(p.w, "[search done] strategy=%s execs=%d states=%d classes=%d bugs=%d bound-completed=%d exhausted=%v%s in %s\n",
			ev.Strategy, ev.Executions, ev.States, ev.Classes, ev.Bugs,
			ev.BoundCompleted, ev.Exhausted, cache, fmtDur(time.Duration(ev.DurationNS)))
	}
}

// estimateSuffix renders the attached estimator's view of one bound, e.g.
// " | bound 2: 41% explored, ~3m12s left". Empty without an estimator or
// before the estimator has anything to say about the bound.
func (p *Progress) estimateSuffix(bound int) string {
	if p.est == nil {
		return ""
	}
	for _, e := range p.est.Estimates() {
		if e.Bound != bound || e.Done || e.EstTotal <= 0 {
			continue
		}
		// Defensive: EstimateSource is an interface; never let a
		// misbehaving implementation print Inf/NaN on a progress line.
		frac := e.Fraction
		if math.IsNaN(frac) || math.IsInf(frac, 0) || frac < 0 {
			continue
		}
		if frac > 1 {
			frac = 1
		}
		s := fmt.Sprintf(" | bound %d: %.0f%% explored", e.Bound, 100*frac)
		if e.ETANanos > 0 {
			s += fmt.Sprintf(", ~%s left", fmtDur(time.Duration(e.ETANanos)))
		}
		return s
	}
	return ""
}

// fmtDur rounds a duration to a width that stays readable as it grows.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	}
	return d.Round(time.Millisecond).String()
}
