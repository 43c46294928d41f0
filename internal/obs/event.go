package obs

import "reflect"

// Event is one fact of the event stream. The set is closed: it is
// implemented only by pointers to this package's payload structs, each of
// which reports its wire name — the "event" field of an NDJSON line and
// the SSE event name — so every surface shares one name table.
type Event interface {
	// Name returns the event's wire name ("execution_done", ...).
	Name() string
	sealed()
}

// Sink receives the event stream of one exploration (or campaign). Emit is
// called from the exploring goroutines — concurrently by the workers of a
// parallel search — so implementations serialize internally. The event is
// valid only for the duration of the call: the engine reuses one
// ExecutionEvent and one CacheEvent per worker, so a subscriber that keeps
// an event must copy it.
type Sink interface {
	Emit(Event)
}

// BoundStart reports that a strategy began draining a bound (or, for
// iterative depth bounding, a depth round).
type BoundStart BoundEvent

// BoundComplete reports that a bound's queue is fully drained.
type BoundComplete BoundEvent

func (*ExecutionEvent) Name() string     { return "execution_done" }
func (*BoundStart) Name() string         { return "bound_start" }
func (*BoundComplete) Name() string      { return "bound_complete" }
func (*BugEvent) Name() string           { return "bug_found" }
func (*CacheEvent) Name() string         { return "cache_hit" }
func (*ProfileEvent) Name() string       { return "profile" }
func (*BPORStatsEvent) Name() string     { return "bpor_stats" }
func (*SearchEvent) Name() string        { return "search_done" }
func (*CampaignEvent) Name() string      { return "campaign_progress" }
func (*CheckpointEvent) Name() string    { return "checkpoint" }
func (*ResumeEvent) Name() string        { return "resume" }
func (*RunEvent) Name() string           { return "run_record" }
func (*FleetSnapshotEvent) Name() string { return "fleet_snapshot" }
func (*PeerStatusEvent) Name() string    { return "peer_status" }

func (*ExecutionEvent) sealed()     {}
func (*BoundStart) sealed()         {}
func (*BoundComplete) sealed()      {}
func (*BugEvent) sealed()           {}
func (*CacheEvent) sealed()         {}
func (*ProfileEvent) sealed()       {}
func (*BPORStatsEvent) sealed()     {}
func (*SearchEvent) sealed()        {}
func (*CampaignEvent) sealed()      {}
func (*CheckpointEvent) sealed()    {}
func (*ResumeEvent) sealed()        {}
func (*RunEvent) sealed()           {}
func (*FleetSnapshotEvent) sealed() {}
func (*PeerStatusEvent) sealed()    {}

// multi fans every event out to each member sink, in order.
type multi []Sink

func (m multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi combines sinks, dropping nil ones — including typed nils such as a
// nil *Metrics stored in a Sink, which is not a nil interface. No sink
// yields nil (so the engine's nil-check keeps the hot path free), one sink
// is returned unwrapped, and several fan out in argument order.
func Multi(sinks ...Sink) Sink {
	var live multi
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		live = append(live, s)
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
