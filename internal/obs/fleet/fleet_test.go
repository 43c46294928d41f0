package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"icb/internal/obs"
	"icb/internal/obs/dash"
	"icb/internal/obs/fleet"
)

func TestBaseURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8081": "http://127.0.0.1:8081",
		"0.0.0.0:8081":   "http://127.0.0.1:8081",
		"[::]:8081":      "http://127.0.0.1:8081",
		":8081":          "http://127.0.0.1:8081",
		"host.example:9": "http://host.example:9",
	}
	for addr, want := range cases {
		if got := fleet.BaseURL(addr); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestAdvertiseDiscover(t *testing.T) {
	dir := t.TempDir()

	// Empty (even absent) peers dir discovers an empty fleet.
	urls, err := fleet.DiscoverPeers(dir)
	if err != nil || len(urls) != 0 {
		t.Fatalf("DiscoverPeers(empty) = %v, %v", urls, err)
	}

	cleanup1, err := fleet.Advertise(dir, "run-b", "http://127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	cleanup2, err := fleet.Advertise(dir, "run-a", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	// A torn concurrent write (the .tmp of an in-flight Advertise) and
	// junk files are skipped, not errors.
	if err := os.WriteFile(filepath.Join(dir, "peers", "run-c.json.tmp"), []byte(`{"url":"http://x`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "peers", "junk.json"), []byte(`notjson`), 0o644); err != nil {
		t.Fatal(err)
	}

	urls, err = fleet.DiscoverPeers(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://127.0.0.1:1" || urls[1] != "http://127.0.0.1:2" {
		t.Fatalf("DiscoverPeers = %v, want the two sorted URLs", urls)
	}

	cleanup1()
	cleanup2()
	urls, err = fleet.DiscoverPeers(dir)
	if err != nil || len(urls) != 0 {
		t.Fatalf("after cleanup DiscoverPeers = %v, %v, want none", urls, err)
	}
}

// worker starts a real dashboard over its own Metrics, like an icb process
// with -http.
func worker(t *testing.T, execs, bugs int64, bound int) *httptest.Server {
	t.Helper()
	met := &obs.Metrics{}
	met.Emit(&obs.BoundStart{Bound: bound})
	for i := int64(0); i < execs; i++ {
		met.Emit(&obs.ExecutionEvent{Execution: int(i + 1), Bound: bound})
	}
	met.Bugs.Store(bugs)
	met.States.Store(execs * 2)
	srv := httptest.NewServer(dash.New(met).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestAggregatorMergeAndDownDetection is the core fleet scenario: two live
// workers sum into the merged view; killing one flips its status down on
// the next poll while its counters stay in the totals.
func TestAggregatorMergeAndDownDetection(t *testing.T) {
	w1 := worker(t, 30, 1, 2)
	w2 := worker(t, 70, 2, 3)

	var mu sync.Mutex
	var statusEvents []obs.PeerStatusEvent
	var rounds []obs.FleetSnapshotEvent
	agg := fleet.New(fleet.Options{
		Peers: []string{w1.URL, w2.URL},
		Sink: sinkFunc(func(ev obs.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev := ev.(type) {
			case *obs.PeerStatusEvent:
				statusEvents = append(statusEvents, *ev)
			case *obs.FleetSnapshotEvent:
				rounds = append(rounds, *ev)
			}
		}),
	})

	agg.PollOnce(context.Background())
	merged := agg.Merged()
	if merged.Executions != 100 || merged.Bugs != 3 || merged.States != 200 {
		t.Fatalf("merged = %+v, want 100 executions, 3 bugs, 200 states", merged)
	}
	if merged.CurBound != 3 {
		t.Errorf("merged CurBound = %d, want max(2,3)=3", merged.CurBound)
	}
	if len(merged.Peers) != 2 {
		t.Fatalf("merged peers = %+v, want 2", merged.Peers)
	}
	for _, p := range merged.Peers {
		if !p.Up {
			t.Errorf("peer %s down after successful poll: %+v", p.Peer, p)
		}
	}
	// Per-bound merge: 30 at bound 2, 70 at bound 3.
	byBound := map[int]int64{}
	for _, b := range merged.Bounds {
		byBound[b.Bound] = b.Executions
	}
	if byBound[2] != 30 || byBound[3] != 70 {
		t.Errorf("merged bounds = %+v", merged.Bounds)
	}
	// Sequential peers appear as synthetic workers with fleet-wide shares.
	if len(merged.Workers) != 2 {
		t.Fatalf("merged workers = %+v, want one per peer", merged.Workers)
	}
	if s := merged.Workers[0].Executions + merged.Workers[1].Executions; s != 100 {
		t.Errorf("worker executions sum = %d, want 100", s)
	}

	mu.Lock()
	if len(statusEvents) != 2 {
		t.Errorf("first round emitted %d peer_status events, want 2 (one per new peer)", len(statusEvents))
	}
	if len(rounds) != 1 || rounds[0].PeersUp != 2 || rounds[0].Executions != 100 {
		t.Errorf("fleet_snapshot rounds = %+v", rounds)
	}
	mu.Unlock()

	// Kill w2: next poll flips it down, counters must not dip, and the
	// transition emits exactly one more peer_status event.
	w2.Close()
	agg.PollOnce(context.Background())
	merged = agg.Merged()
	if merged.Executions != 100 || merged.Bugs != 3 {
		t.Fatalf("after death merged = %+v, want counters to persist", merged)
	}
	downCount := 0
	for _, p := range merged.Peers {
		if !p.Up {
			downCount++
			if p.Err == "" {
				t.Errorf("down peer has empty error: %+v", p)
			}
			if p.Executions != 70 {
				t.Errorf("down peer lost its last-known counters: %+v", p)
			}
		}
	}
	if downCount != 1 {
		t.Fatalf("down peers = %d, want 1", downCount)
	}
	mu.Lock()
	if len(statusEvents) != 3 || statusEvents[2].Up {
		t.Errorf("status events after death = %+v, want one down edge", statusEvents)
	}
	mu.Unlock()

	// A further poll with no change emits no more edges.
	agg.PollOnce(context.Background())
	mu.Lock()
	if len(statusEvents) != 3 {
		t.Errorf("steady-state poll emitted extra peer_status events: %+v", statusEvents)
	}
	if len(rounds) != 3 {
		t.Errorf("rounds = %d, want 3", len(rounds))
	}
	mu.Unlock()
	if agg.Rounds() != 3 {
		t.Errorf("Rounds() = %d, want 3", agg.Rounds())
	}
}

// TestAggregatorFileDiscovery checks peers found via a shared journal dir
// are polled like static ones.
func TestAggregatorFileDiscovery(t *testing.T) {
	w := worker(t, 12, 0, 1)
	dir := t.TempDir()
	if _, err := fleet.Advertise(dir, "run-1", w.URL); err != nil {
		t.Fatal(err)
	}
	agg := fleet.New(fleet.Options{JournalDir: dir})
	agg.PollOnce(context.Background())
	merged := agg.Merged()
	if merged.Executions != 12 || len(merged.Peers) != 1 || !merged.Peers[0].Up {
		t.Fatalf("merged = %+v, want the discovered worker up with 12 executions", merged)
	}
}

// TestAggregatorMinFirstBug checks the fleet keeps the earliest first-bug
// sighting per distinct defect across peers.
func TestAggregatorMinFirstBug(t *testing.T) {
	mkSrv := func(s obs.Snapshot) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/api/snapshot", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(s)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("# HELP icb_executions_total c.\n# TYPE icb_executions_total counter\nicb_executions_total 1\n"))
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	s1 := mkSrv(obs.Snapshot{Executions: 1, Profile: &obs.ProfileData{FirstBugs: []obs.ProfileFirstBug{
		{Kind: "deadlock", Message: "ab-ba", TNS: 9e9},
		{Kind: "race", Message: "w-w", TNS: 5e9},
	}}})
	s2 := mkSrv(obs.Snapshot{Executions: 1, Profile: &obs.ProfileData{FirstBugs: []obs.ProfileFirstBug{
		{Kind: "deadlock", Message: "ab-ba", TNS: 3e9},
	}}})

	agg := fleet.New(fleet.Options{Peers: []string{s1.URL, s2.URL}})
	agg.PollOnce(context.Background())
	merged := agg.Merged()
	if merged.Profile == nil || len(merged.Profile.FirstBugs) != 2 {
		t.Fatalf("merged profile = %+v, want 2 distinct first bugs", merged.Profile)
	}
	// Ascending by TNS: the deadlock's cross-peer min (3s) sorts first.
	if fb := merged.Profile.FirstBugs[0]; fb.Kind != "deadlock" || fb.TNS != 3e9 {
		t.Errorf("first first-bug = %+v, want deadlock at 3e9 (min across peers)", fb)
	}
	if fb := merged.Profile.FirstBugs[1]; fb.Kind != "race" || fb.TNS != 5e9 {
		t.Errorf("second first-bug = %+v, want race at 5e9", fb)
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(ev obs.Event) { f(ev) }
