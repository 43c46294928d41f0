// Package dash serves the live search dashboard: a small net/http surface
// over the obs telemetry that makes a long-running search legible from a
// browser (or curl) while it runs.
//
// Endpoints:
//
//	GET /api/snapshot  counters + per-bound stats + schedule-space
//	                   estimates, as one JSON object (obs.Snapshot)
//	GET /api/events    the structured event stream bridged to Server-Sent
//	                   Events; each obs event kind becomes an SSE event
//	GET /api/runs      the campaign history: every RunRecord from the
//	                   attached journal directories plus the cross-run
//	                   trend points, re-read per request so finished runs
//	                   appear without a restart
//	GET /              an embedded single-page view with per-bound progress
//	                   bars, an exec/sec sparkline, a live event log, and —
//	                   with journal directories attached — a campaign
//	                   history panel
//
// The Server's Sink bridges engine events to SSE subscribers; when nobody
// is connected it drops events after one atomic load, so attaching the
// dashboard to a search costs nothing until a browser shows up. Slow
// subscribers lose events rather than stalling the search: the stream is a
// live view, not a durable record (that is NDJSON's job).
package dash

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/journal"
	"icb/internal/obs/promexp"
)

//go:embed index.html
var indexHTML []byte

// heartbeatEvery is the idle keep-alive period of the SSE stream, so
// proxies and browsers do not time out a quiet search.
const heartbeatEvery = 15 * time.Second

// Server is the dashboard: construct with New, mount Handler on an
// http.Server, and register Sink with the exploration.
type Server struct {
	met     *obs.Metrics
	snapSrc func() obs.Snapshot // overrides met when set (fleet aggregator)
	bc      *broadcaster
	mux     *http.ServeMux

	mu          sync.Mutex
	journalDirs []string
}

// New returns a dashboard over met (which may be nil; snapshots are then
// empty until a Metrics is attached to the search).
func New(met *obs.Metrics) *Server {
	s := &Server{met: met, bc: newBroadcaster(met)}
	s.init()
	return s
}

// NewWithSource returns a dashboard over an arbitrary snapshot source
// instead of a local Metrics — the fleet aggregator uses it to serve the
// standard UI and /metrics over its merged fleet-wide view.
func NewWithSource(src func() obs.Snapshot) *Server {
	s := &Server{snapSrc: src, bc: newBroadcaster(nil)}
	s.init()
	return s
}

func (s *Server) init() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/api/snapshot", s.snapshot)
	s.mux.HandleFunc("/api/events", s.events)
	s.mux.HandleFunc("/api/runs", s.runs)
	s.mux.Handle("/metrics", promexp.Handler(s.snap))
	s.mux.HandleFunc("/", s.index)
}

// Mount registers an extra handler (e.g. health probes) on the dashboard
// mux. Call before serving; ServeMux registration is not concurrency-safe
// with requests.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// SetJournalDirs attaches the journal directories whose campaign ledgers
// back /api/runs and the history panel. The ledgers are re-read on every
// request (they are small, append-only NDJSON files), so records appended
// by this run — or by concurrent runs sharing a directory — show up live.
func (s *Server) SetJournalDirs(dirs []string) {
	s.mu.Lock()
	s.journalDirs = append([]string(nil), dirs...)
	s.mu.Unlock()
}

// runs serves GET /api/runs: the concatenated ledgers of the attached
// journal directories in start-time order, plus the cross-run trend.
func (s *Server) runs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	dirs := s.journalDirs
	s.mu.Unlock()
	var records []obs.RunRecord
	var errs []string
	for _, dir := range dirs {
		rs, err := journal.ReadRuns(dir)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		records = append(records, rs...)
	}
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].StartUnixNS < records[j].StartUnixNS
	})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(map[string]any{
		"dirs":   dirs,
		"runs":   records,
		"trend":  journal.Trend(records),
		"errors": errs,
	})
}

// Handler returns the dashboard's HTTP handler (a dedicated ServeMux —
// nothing is registered on http.DefaultServeMux, so stray expvar or pprof
// init registrations cannot leak into the dashboard port).
func (s *Server) Handler() http.Handler { return s.mux }

// Sink returns the obs.Sink that feeds /api/events subscribers. Register
// it with the search (e.g. via obs.Multi) to make the event stream live;
// the fleet aggregator registers it for its fleet events.
func (s *Server) Sink() obs.Sink { return s.bc }

// Subscribers returns the number of currently connected SSE subscribers.
// A disconnected client must eventually drop this back down: the event
// bridge's idle fast path relies on the count reaching zero again.
func (s *Server) Subscribers() int { return int(s.bc.nsubs.Load()) }

func (s *Server) snap() obs.Snapshot {
	if s.snapSrc != nil {
		return s.snapSrc()
	}
	if s.met == nil {
		return obs.Snapshot{}
	}
	return s.met.Snapshot()
}

// snapshot serves GET /api/snapshot.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	if err := json.NewEncoder(w).Encode(s.snap()); err != nil {
		// The connection is gone; nothing sensible to do.
		return
	}
}

// events serves GET /api/events as a Server-Sent Events stream: first a
// "snapshot" event so a late-joining page paints immediately, then one SSE
// event per obs event, named after its kind ("execution_done", ...).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")

	ch := s.bc.subscribe()
	defer s.bc.unsubscribe(ch)

	if js, err := json.Marshal(s.snap()); err == nil {
		fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", js)
	}
	fl.Flush()

	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		}
	}
}

// index serves the embedded single-page view.
func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(indexHTML)
}

// sseEvent is one marshaled event ready to write to subscribers.
type sseEvent struct {
	name string
	data []byte
}

// broadcaster is the obs.Sink half of the bridge: it fans events out to
// the current SSE subscribers, dropping per-subscriber when a channel is
// full so the exploring goroutine never blocks on a slow browser. Drops
// are counted in met.SSEDropped (when a Metrics is attached), so the loss
// is visible in /api/snapshot and /metrics instead of silent.
type broadcaster struct {
	mu    sync.Mutex
	subs  map[chan sseEvent]struct{}
	nsubs atomic.Int64
	met   *obs.Metrics // drop counter sink; may be nil
}

func newBroadcaster(met *obs.Metrics) *broadcaster {
	return &broadcaster{subs: make(map[chan sseEvent]struct{}), met: met}
}

// subscriberBuffer absorbs bursts (a fast search emits thousands of
// execution events per second) before drops kick in.
const subscriberBuffer = 256

func (b *broadcaster) subscribe() chan sseEvent {
	ch := make(chan sseEvent, subscriberBuffer)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.nsubs.Store(int64(len(b.subs)))
	b.mu.Unlock()
	return ch
}

func (b *broadcaster) unsubscribe(ch chan sseEvent) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.nsubs.Store(int64(len(b.subs)))
	b.mu.Unlock()
}

// idle reports that no subscriber is connected. Emit checks it before
// touching its event, so the engine's hot path stays allocation-free while
// no browser is attached.
func (b *broadcaster) idle() bool { return b.nsubs.Load() == 0 }

// emit marshals once and offers the event to every subscriber.
func (b *broadcaster) emit(name string, data any) {
	js, err := json.Marshal(data)
	if err != nil {
		return
	}
	b.mu.Lock()
	for ch := range b.subs {
		select {
		case ch <- sseEvent{name: name, data: js}:
		default: // slow subscriber: drop rather than stall the search
			if b.met != nil {
				b.met.SSEDropped.Add(1)
			}
		}
	}
	b.mu.Unlock()
}

// Emit implements obs.Sink: one SSE event named after the event.
func (b *broadcaster) Emit(ev obs.Event) {
	if !b.idle() {
		b.emit(ev.Name(), ev)
	}
}
