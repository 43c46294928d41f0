package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// NDJSONSchemaVersion is the version stamped on every NDJSON line (and the
// stream header). Bump it when the envelope or an event payload changes
// incompatibly, so offline consumers can detect streams they do not
// understand. v3 added the campaign-durability events (checkpoint, resume,
// run_record); v4 the fleet-telemetry events (fleet_snapshot, peer_status)
// the campaign aggregator emits; v5 the bpor_stats event of searches run
// with bounded partial-order reduction; v6 the work-stealing scheduler
// fields — steals/steal_fails/idle_ns on profile worker rows, steals on
// snapshot worker rows, and the scheduler/next_work2/held_bugs/done_execs/
// early_execs checkpoint-state fields. The envelope and every earlier
// event payload are unchanged, so consumers that skip unknown event names
// and fields read newer streams correctly.
const NDJSONSchemaVersion = 6

// NDJSON writes the event stream as newline-delimited JSON, one object per
// line, for offline analysis (jq, pandas, ...). The first line is a header
// identifying the producing binary; every following line carries the event
// name, a monotonic sequence number, the schema version, and the
// milliseconds since the writer was created:
//
//	{"event":"header","seq":0,"v":4,"t_ms":0,"data":{"build":"icb v0.0.0-... go1.24"}}
//	{"event":"bound_start","seq":1,"v":4,"t_ms":12,"data":{"bound":1,"queue":42,...}}
//
// seq increases by exactly 1 per line, so a consumer can detect dropped or
// reordered lines (e.g. after truncated copies or interleaved appends).
// Writes are buffered; call Close (or Flush) when the search returns.
// Unlike Progress, nothing is rate-limited: the stream is the full record
// of the search, including one line per cache hit.
type NDJSON struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
	seq   int64
	err   error
}

// ndjsonLine is the envelope of one event line.
type ndjsonLine struct {
	Event string `json:"event"`
	// Seq is the line's monotonic sequence number, starting at 0 with the
	// header and increasing by 1 per line.
	Seq int64 `json:"seq"`
	// V is the stream schema version (NDJSONSchemaVersion).
	V    int   `json:"v"`
	TMS  int64 `json:"t_ms"`
	Data any   `json:"data"`
}

// ndjsonHeader is the payload of the leading "header" line.
type ndjsonHeader struct {
	// Build identifies the producing binary (BuildInfo).
	Build string `json:"build"`
	// StartUnixNS is the stream's creation time.
	StartUnixNS int64 `json:"start_unix_ns"`
}

// NewNDJSON returns an NDJSON sink writing to w; the stream header line is
// written immediately. The caller keeps ownership of w (close the
// underlying file after Close/Flush).
func NewNDJSON(w io.Writer) *NDJSON {
	bw := bufio.NewWriter(w)
	n := &NDJSON{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
	n.emit("header", ndjsonHeader{Build: BuildInfo(), StartUnixNS: n.start.UnixNano()})
	return n
}

func (n *NDJSON) emit(event string, data any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return
	}
	// Encode appends the trailing newline: one object per line.
	n.err = n.enc.Encode(ndjsonLine{
		Event: event,
		Seq:   n.seq,
		V:     NDJSONSchemaVersion,
		TMS:   time.Since(n.start).Milliseconds(),
		Data:  data,
	})
	if n.err == nil {
		n.seq++
	}
}

// Emit implements Sink: one line named after the event.
func (n *NDJSON) Emit(ev Event) { n.emit(ev.Name(), ev) }

// Flush drains the write buffer and returns the first error encountered
// by any write so far.
func (n *NDJSON) Flush() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.w.Flush(); n.err == nil {
		n.err = err
	}
	return n.err
}

// Close flushes; it does not close the underlying writer.
func (n *NDJSON) Close() error { return n.Flush() }
