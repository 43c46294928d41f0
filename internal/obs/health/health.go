// Package health gives every icb process the two probes production
// schedulers expect: /healthz (liveness — the event loop is beating) and
// /readyz (readiness — the search started and its checkpoint directory is
// writable). A systematic search is a batch workload, so liveness is
// defined by progress, not by the process being up: the Probe is an
// obs.Sink whose heartbeat advances on every engine event, and a search
// that stops emitting events for longer than the stall window reports
// unhealthy — the condition that distinguishes a deadlocked test harness
// from one grinding through a large bound. A search that finished (or has
// not started) is healthy: quiet is only a symptom while work is supposed
// to be happening.
package health

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/obs"
)

// DefaultStallAfter is the default liveness window: how long the event
// loop may go silent mid-search before /healthz flips unhealthy. Generous
// on purpose — a single execution never takes this long, so a trip means
// the harness is stuck, not slow.
const DefaultStallAfter = 2 * time.Minute

// Probe tracks liveness and readiness. It implements obs.Sink (register it
// alongside the dashboard sink, e.g. via obs.Multi) so the heartbeat rides
// the existing event stream; binaries without a Sink pipeline can call
// Beat directly from their own loop.
type Probe struct {
	stallAfter time.Duration
	now        func() time.Time // injectable for tests

	started atomic.Bool
	done    atomic.Bool
	// lastBeat is the UnixNano of the latest heartbeat.
	lastBeat atomic.Int64

	mu    sync.Mutex
	ready []func() error // extra readiness conditions (checkpoint writable)
}

// New returns a probe with the given stall window (0 means
// DefaultStallAfter).
func New(stallAfter time.Duration) *Probe {
	if stallAfter <= 0 {
		stallAfter = DefaultStallAfter
	}
	return &Probe{stallAfter: stallAfter, now: time.Now}
}

// SetNow replaces the clock; tests use it to stall the heartbeat without
// sleeping.
func (p *Probe) SetNow(now func() time.Time) { p.now = now }

// Beat records one heartbeat and marks the search started.
func (p *Probe) Beat() {
	p.lastBeat.Store(p.now().UnixNano())
	p.started.Store(true)
}

// MarkStarted marks the engine started (ready) without beating; the first
// event will beat anyway, but binaries can call this right before Run so
// /readyz flips as soon as the search is underway.
func (p *Probe) MarkStarted() {
	p.started.Store(true)
	p.lastBeat.CompareAndSwap(0, p.now().UnixNano())
}

// MarkDone marks the search complete: a finished process that keeps
// serving its dashboard stays healthy with no heartbeats.
func (p *Probe) MarkDone() { p.done.Store(true) }

// AddReadyCheck appends a readiness condition evaluated on every /readyz
// request (return nil when ready).
func (p *Probe) AddReadyCheck(check func() error) {
	p.mu.Lock()
	p.ready = append(p.ready, check)
	p.mu.Unlock()
}

// Healthy returns nil when the process is live: before the search starts,
// after it finishes, or while heartbeats are within the stall window.
func (p *Probe) Healthy() error {
	if p.done.Load() || !p.started.Load() {
		return nil
	}
	last := p.lastBeat.Load()
	if last == 0 {
		return nil
	}
	if silent := p.now().Sub(time.Unix(0, last)); silent > p.stallAfter {
		return fmt.Errorf("event loop stalled: no heartbeat for %s (window %s)", silent.Round(time.Second), p.stallAfter)
	}
	return nil
}

// Ready returns nil when the search has started and every readiness check
// passes.
func (p *Probe) Ready() error {
	if !p.started.Load() {
		return fmt.Errorf("search not started")
	}
	p.mu.Lock()
	checks := p.ready
	p.mu.Unlock()
	for _, c := range checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// Healthz is the /healthz handler: 200 "ok" or 503 with the stall reason.
func (p *Probe) Healthz() http.Handler { return probeHandler(p.Healthy) }

// Readyz is the /readyz handler: 200 "ok" or 503 with the unready reason.
func (p *Probe) Readyz() http.Handler { return probeHandler(p.Ready) }

func probeHandler(check func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if err := check(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
}

// CheckWritable returns a readiness check probing that dir accepts writes
// (the checkpoint/journal directory). Each evaluation creates and removes
// a dotfile, so a directory that fills up or loses permissions mid-run
// flips /readyz without restarting the process. A process with no journal
// passes "" for an always-ready check.
func CheckWritable(dir string) func() error {
	return func() error {
		if dir == "" {
			return nil
		}
		f, err := os.CreateTemp(dir, ".readyz-*")
		if err != nil {
			return fmt.Errorf("journal dir not writable: %w", err)
		}
		name := f.Name()
		f.Close()
		os.Remove(name)
		return nil
	}
}

// Emit implements obs.Sink: every event beats the heartbeat, and
// SearchEvent additionally retires the liveness requirement.
func (p *Probe) Emit(ev obs.Event) {
	p.Beat()
	if _, ok := ev.(*obs.SearchEvent); ok {
		p.MarkDone()
	}
}
