package health_test

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icb/internal/obs"
	"icb/internal/obs/health"
)

// fakeClock advances only when told, so stall tests need no sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newProbe(stall time.Duration) (*health.Probe, *fakeClock) {
	p := health.New(stall)
	c := &fakeClock{t: time.Unix(1_000_000, 0)}
	p.SetNow(c.now)
	return p, c
}

// TestHealthzStalledHeartbeat is the satellite: a search that goes silent
// past the stall window flips /healthz to 503, and the next event flips it
// back.
func TestHealthzStalledHeartbeat(t *testing.T) {
	p, clock := newProbe(time.Minute)

	// Before any event: healthy (startup grace).
	if err := p.Healthy(); err != nil {
		t.Fatalf("pre-start Healthy() = %v, want nil", err)
	}

	var sink obs.Sink = p // the probe rides the event stream
	sink.Emit(&obs.ExecutionEvent{Execution: 1})
	if err := p.Healthy(); err != nil {
		t.Fatalf("beating Healthy() = %v, want nil", err)
	}

	// Quiet but within the window: still healthy.
	clock.advance(59 * time.Second)
	if err := p.Healthy(); err != nil {
		t.Fatalf("within-window Healthy() = %v, want nil", err)
	}

	// Past the window: unhealthy, and the handler answers 503.
	clock.advance(2 * time.Minute)
	if err := p.Healthy(); err == nil {
		t.Fatal("stalled Healthy() = nil, want error")
	}
	rec := httptest.NewRecorder()
	p.Healthz().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("stalled /healthz = %d, want 503", rec.Code)
	}

	// An event revives it.
	sink.Emit(&obs.BoundStart{Bound: 2})
	if err := p.Healthy(); err != nil {
		t.Fatalf("revived Healthy() = %v, want nil", err)
	}

	// A finished search stays healthy forever, however quiet.
	sink.Emit(&obs.SearchEvent{})
	clock.advance(24 * time.Hour)
	if err := p.Healthy(); err != nil {
		t.Fatalf("done Healthy() = %v, want nil", err)
	}
}

func TestReadyz(t *testing.T) {
	p, _ := newProbe(time.Minute)

	rec := httptest.NewRecorder()
	p.Readyz().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("pre-start /readyz = %d, want 503", rec.Code)
	}

	p.MarkStarted()
	if err := p.Ready(); err != nil {
		t.Fatalf("started Ready() = %v, want nil", err)
	}

	// A failing readiness check flips it back.
	boom := errors.New("disk full")
	p.AddReadyCheck(func() error { return boom })
	if err := p.Ready(); !errors.Is(err, boom) {
		t.Fatalf("Ready() = %v, want %v", err, boom)
	}
}

func TestCheckWritable(t *testing.T) {
	dir := t.TempDir()
	if err := health.CheckWritable(dir)(); err != nil {
		t.Fatalf("writable dir: %v", err)
	}
	// The probe file must not linger.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("probe file left behind: %v", entries)
	}
	if err := health.CheckWritable(filepath.Join(dir, "missing"))(); err == nil {
		t.Fatal("missing dir reported writable")
	}
	if err := health.CheckWritable("")(); err != nil {
		t.Fatalf("empty dir should be always-ready: %v", err)
	}
}
