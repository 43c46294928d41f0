package dash_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/dash"
	"icb/internal/obs/estimate"
	"icb/internal/obs/promexp"
)

// TestDashSnapshotEndpoint checks GET /api/snapshot serves the metrics —
// counters, per-bound stats, and the attached estimator's estimates — as
// one JSON object.
func TestDashSnapshotEndpoint(t *testing.T) {
	met := &obs.Metrics{}
	met.Emit(&obs.ExecutionEvent{Execution: 1, Bound: 0})
	met.Emit(&obs.ExecutionEvent{Execution: 2, Bound: 1})
	met.Emit(&obs.ExecutionEvent{Execution: 3, Bound: 1})
	met.Bugs.Add(1)
	est := estimate.New()
	est.Emit(&obs.BoundStart{Bound: 1, Queue: 4})
	est.Emit(&obs.ExecutionEvent{Bound: 1, Execution: 1})
	est.Emit(&obs.ExecutionEvent{Bound: 1, Execution: 2, SeedsDone: 2, SeedsTotal: 4})
	met.SetEstimator(est)

	srv := httptest.NewServer(dash.New(met).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Executions != 3 || snap.Bugs != 1 || len(snap.Bounds) != 2 {
		t.Errorf("snapshot = %+v, want 3 executions, 1 bug, 2 bounds", snap)
	}
	if len(snap.Estimates) != 1 || snap.Estimates[0].Bound != 1 {
		t.Fatalf("snapshot estimates = %+v, want one estimate for bound 1", snap.Estimates)
	}
	if e := snap.Estimates[0]; e.EstTotal != 4 || e.Fraction != 0.5 {
		t.Errorf("estimate = %+v, want total 4 at fraction 0.5", e)
	}
}

// TestDashSnapshotWithoutMetrics checks a nil-Metrics dashboard serves an
// empty snapshot instead of crashing.
func TestDashSnapshotWithoutMetrics(t *testing.T) {
	srv := httptest.NewServer(dash.New(nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Executions != 0 {
		t.Errorf("snapshot = %+v, want zero values", snap)
	}
}

// TestDashEventsSSE checks GET /api/events: the stream opens with a
// snapshot event and then carries sink events bridged as SSE, named after
// their kind.
func TestDashEventsSSE(t *testing.T) {
	ds := dash.New(&obs.Metrics{})
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	// The subscriber registers when the handler runs; emit until the
	// events land rather than racing a single emission against it.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ds.Sink().Emit(&obs.BugEvent{Kind: "deadlock", Message: "stuck", Execution: 7})
				time.Sleep(time.Millisecond)
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var sawSnapshot bool
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("no bug_found event within deadline")
		}
		line := sc.Text()
		if line == "event: snapshot" {
			sawSnapshot = true
		}
		if line == "event: bug_found" {
			if !sawSnapshot {
				t.Error("bug_found arrived before the opening snapshot event")
			}
			if !sc.Scan() {
				t.Fatal("event line without a data line")
			}
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				t.Fatalf("malformed SSE data line %q", sc.Text())
			}
			var ev obs.BugEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bug_found payload: %v", err)
			}
			if ev.Kind != "deadlock" || ev.Execution != 7 {
				t.Errorf("bug event = %+v", ev)
			}
			return
		}
	}
	t.Fatalf("stream ended without a bug_found event: %v", sc.Err())
}

// TestDashIndex checks the embedded page is served at / only.
func TestDashIndex(t *testing.T) {
	srv := httptest.NewServer(dash.New(nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("GET / = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	resp, err = http.Get(srv.URL + "/nosuchpage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nosuchpage = %d, want 404", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDashSubscriberUnregistersOnDisconnect checks the SSE bookkeeping: a
// connected client registers exactly one subscriber, and dropping the
// connection unregisters it, returning the bridge to its idle (free) path.
// A leak here would make every event allocate forever after one browser
// visit.
func TestDashSubscriberUnregistersOnDisconnect(t *testing.T) {
	ds := dash.New(&obs.Metrics{})
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()

	if n := ds.Subscribers(); n != 0 {
		t.Fatalf("fresh dashboard has %d subscribers, want 0", n)
	}
	resp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber to register", func() bool { return ds.Subscribers() == 1 })

	// Second client: counts are per-connection, not a boolean.
	resp2, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second subscriber to register", func() bool { return ds.Subscribers() == 2 })

	// Closing the body cancels the request context server-side; the
	// handler's deferred unsubscribe must run.
	resp.Body.Close()
	waitFor(t, "first subscriber to unregister", func() bool { return ds.Subscribers() == 1 })
	resp2.Body.Close()
	waitFor(t, "second subscriber to unregister", func() bool { return ds.Subscribers() == 0 })

	// Back on the idle path: bridging an event allocates nothing again.
	sink := ds.Sink()
	ev := obs.ExecutionEvent{Execution: 1}
	if allocs := testing.AllocsPerRun(100, func() {
		sink.Emit(&ev)
	}); allocs != 0 {
		t.Errorf("post-disconnect event bridge allocates %.1f per event, want 0", allocs)
	}
}

// TestDashMetricsEndpoint checks the dashboard mux serves the Prometheus
// exposition at /metrics and that the payload passes the in-repo lint.
func TestDashMetricsEndpoint(t *testing.T) {
	met := &obs.Metrics{}
	met.Emit(&obs.ExecutionEvent{Execution: 1, Bound: 1})
	met.Emit(&obs.ExecutionEvent{Execution: 2, Bound: 1})
	met.Bugs.Add(1)
	srv := httptest.NewServer(dash.New(met).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promexp.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promexp.ContentType)
	}
	var body strings.Builder
	if _, err := io.Copy(&body, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := body.String()
	if !strings.Contains(out, "icb_executions_total 2\n") || !strings.Contains(out, "icb_bugs_total 1\n") {
		t.Errorf("/metrics missing counters:\n%s", out)
	}
	if probs := promexp.Lint(strings.NewReader(out)); len(probs) > 0 {
		t.Errorf("/metrics payload fails lint: %v", probs)
	}
}

// TestDashSSEDroppedCounted checks the drop-on-slow path is no longer
// silent: a subscriber that never reads its stream eventually forces drops,
// which surface in Metrics.SSEDropped, /api/snapshot, and /metrics.
func TestDashSSEDroppedCounted(t *testing.T) {
	met := &obs.Metrics{}
	ds := dash.New(met)
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber to register", func() bool { return ds.Subscribers() == 1 })

	// Never read resp.Body: the handler stalls once the socket buffers
	// fill, its channel backs up past subscriberBuffer, and every further
	// emission drops. Emit until the counter moves.
	sink := ds.Sink()
	deadline := time.Now().Add(10 * time.Second)
	for met.SSEDropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops recorded on a never-reading subscriber")
		}
		sink.Emit(&obs.BugEvent{Kind: "deadlock", Message: strings.Repeat("x", 256)})
	}

	if snap := met.Snapshot(); snap.SSEDropped == 0 {
		t.Errorf("Snapshot.SSEDropped = 0 after drops")
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body strings.Builder
	if _, err := io.Copy(&body, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "icb_sse_dropped_events_total") {
		t.Errorf("/metrics missing icb_sse_dropped_events_total:\n%s", body.String())
	}
	for _, line := range strings.Split(body.String(), "\n") {
		if strings.HasPrefix(line, "icb_sse_dropped_events_total ") && strings.HasSuffix(line, " 0") {
			t.Errorf("dropped-events counter still zero: %q", line)
		}
	}
}

// TestDashNewWithSource checks a source-backed dashboard (the fleet
// aggregator's mode) serves the provided snapshot on /api/snapshot and
// renders its fleet families on /metrics.
func TestDashNewWithSource(t *testing.T) {
	merged := obs.Snapshot{
		Executions: 1100,
		Bugs:       2,
		Peers: []obs.PeerStatus{
			{Peer: "http://127.0.0.1:1", Up: true, Executions: 600},
			{Peer: "http://127.0.0.1:2", Up: false, Err: "dial", Executions: 500},
		},
	}
	srv := httptest.NewServer(dash.NewWithSource(func() obs.Snapshot { return merged }).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Executions != 1100 || len(snap.Peers) != 2 {
		t.Errorf("snapshot = %+v, want merged view with 2 peers", snap)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body strings.Builder
	if _, err := io.Copy(&body, mresp.Body); err != nil {
		t.Fatal(err)
	}
	out := body.String()
	for _, want := range []string{"icb_executions_total 1100\n", "icb_fleet_peers 2\n", "icb_fleet_peers_up 1\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet /metrics missing %q:\n%s", want, out)
		}
	}
	if probs := promexp.Lint(strings.NewReader(out)); len(probs) > 0 {
		t.Errorf("fleet /metrics fails lint: %v", probs)
	}
}

// TestDashMountAndFleetEvents checks the two fleet hooks: Mount registers
// an extra endpoint on the dashboard mux, and the Sink bridges the
// aggregator's fleet events to SSE subscribers.
func TestDashMountAndFleetEvents(t *testing.T) {
	ds := dash.New(nil)
	ds.Mount("/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(ds.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mounted /healthz = %d, want 200", resp.StatusCode)
	}

	eresp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	waitFor(t, "subscriber to register", func() bool { return ds.Subscribers() == 1 })

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ds.Sink().Emit(&obs.PeerStatusEvent{Peer: "http://w1", Up: true})
				time.Sleep(time.Millisecond)
			}
		}
	}()

	sc := bufio.NewScanner(eresp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("no peer_status event within deadline")
		}
		if sc.Text() == "event: peer_status" {
			if !sc.Scan() {
				t.Fatal("event line without a data line")
			}
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				t.Fatalf("malformed SSE data line %q", sc.Text())
			}
			var ev obs.PeerStatusEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Peer != "http://w1" || !ev.Up {
				t.Errorf("peer_status = %+v", ev)
			}
			return
		}
	}
	t.Fatalf("stream ended without peer_status: %v", sc.Err())
}

// TestDashSinkCheapWithoutSubscribers pins the idle cost of attaching the
// dashboard: with no SSE subscriber connected, bridging an event allocates
// nothing (one atomic load and out).
func TestDashSinkCheapWithoutSubscribers(t *testing.T) {
	sink := dash.New(&obs.Metrics{}).Sink()
	ev := obs.ExecutionEvent{Execution: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		sink.Emit(&ev)
	})
	if allocs != 0 {
		t.Errorf("idle event bridge allocates %.1f per event, want 0", allocs)
	}
}
