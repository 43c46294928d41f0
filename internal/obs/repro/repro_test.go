package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/repro"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// TestBundleWriteLoadReplay is the acceptance check, end to end: a real ICB
// search of the work-stealing queue with a seeded bug writes a bundle at
// its bug event, and the bundle loads and replays to the identical bug and the
// identical swimlane.
func TestBundleWriteLoadReplay(t *testing.T) {
	dir := t.TempDir()
	prog := wsq.Program(wsq.PopUnreservedRead, wsq.Params{})
	opt := core.Options{
		MaxPreemptions: 2,
		CheckRaces:     true,
		StopOnFirstBug: true,
	}
	w := repro.NewWriter(dir, prog, repro.NewMeta("wsq", "pop-unreserved-read", "icb", 0, opt))
	w.SetClock(func() time.Time { return time.Unix(1, 0) })
	opt.Sink = w

	res := core.Explore(prog, core.ICB{}, opt)
	if len(res.Bugs) == 0 {
		t.Fatal("search found no bug; cannot test bundling")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	paths := w.Bundles()
	if len(paths) != 1 {
		t.Fatalf("bundles written = %v, want exactly one", paths)
	}

	// Every artifact of the bundle exists.
	for _, name := range []string{"bundle.json", "swimlane.txt", "report.txt"} {
		if _, err := os.Stat(filepath.Join(paths[0], name)); err != nil {
			t.Errorf("bundle is missing %s: %v", name, err)
		}
	}

	// Loading from the directory and from the manifest path both work.
	b, err := repro.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Load(filepath.Join(paths[0], "bundle.json")); err != nil {
		t.Fatal(err)
	}

	bug := res.FirstBug()
	if b.Bug.Kind != bug.Kind.String() || b.Bug.Message != bug.Message {
		t.Errorf("bundle bug = %+v, search found %v", b.Bug, bug)
	}
	if b.Schedule.String() != bug.Schedule.String() {
		t.Errorf("bundle schedule %q != search schedule %q", b.Schedule, bug.Schedule)
	}
	if b.Meta.Program != "wsq" || b.Meta.Bound != 2 || !b.Meta.CheckRaces {
		t.Errorf("bundle meta = %+v", b.Meta)
	}

	// The replay reproduces the identical bug...
	r := repro.Replay(b, prog)
	if !r.Reproduced() {
		t.Fatalf("bundle did not reproduce: replay outcome %v, bugs %v", r.Outcome, r.Bugs)
	}
	if r.Match.Kind != bug.Kind || r.Match.Message != bug.Message {
		t.Errorf("replayed bug = %v, want %v", r.Match, bug)
	}
	// ...and re-renders the identical swimlane.
	lane, err := os.ReadFile(b.SwimlanePath())
	if err != nil {
		t.Fatal(err)
	}
	if string(lane) != r.Swimlane {
		t.Errorf("replayed swimlane differs from the bundled one:\n--- bundled\n%s--- replayed\n%s", lane, r.Swimlane)
	}
}

// TestWriterSkipsScheduleFreeBugs checks that bug events without a
// replayable schedule (the explicit-state checker's) are skipped silently.
func TestWriterSkipsScheduleFreeBugs(t *testing.T) {
	w := repro.NewWriter(t.TempDir(), nil, repro.Meta{})
	w.Emit(&obs.BugEvent{Kind: "deadlock", Message: "stuck"})
	if err := w.Err(); err != nil {
		t.Errorf("Err() = %v, want nil", err)
	}
	if got := w.Bundles(); len(got) != 0 {
		t.Errorf("Bundles() = %v, want none", got)
	}
}

// TestReplayDetectsNonReproduction tampers with a loaded bundle and checks
// Replay reports the mismatch instead of blessing a stale artifact.
func TestReplayDetectsNonReproduction(t *testing.T) {
	prog := wsq.Program(wsq.PopUnreservedRead, wsq.Params{})
	opt := core.Options{MaxPreemptions: 2, CheckRaces: true, StopOnFirstBug: true}
	w := repro.NewWriter(t.TempDir(), prog, repro.NewMeta("wsq", "pop-unreserved-read", "icb", 0, opt))
	opt.Sink = w
	core.Explore(prog, core.ICB{}, opt)
	paths := w.Bundles()
	if len(paths) != 1 {
		t.Fatalf("bundles = %v, want one", paths)
	}
	b, err := repro.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b.Bug.Message = "a different defect entirely"
	if r := repro.Replay(b, prog); r.Reproduced() {
		t.Error("tampered bundle still reports Reproduced")
	}
	// A schedule that leads nowhere buggy yields no match either.
	b.Schedule = sched.Schedule{sched.ThreadDecision(0)}
	if r := repro.Replay(b, prog); r.Reproduced() || len(r.Bugs) != 0 {
		t.Errorf("trivial schedule replayed to bugs %v", r.Bugs)
	}
}

// TestLoadRejectsBadBundles covers the loader's failure modes.
func TestLoadRejectsBadBundles(t *testing.T) {
	dir := t.TempDir()
	if _, err := repro.Load(filepath.Join(dir, "missing")); err == nil {
		t.Error("loading a missing path succeeded")
	}

	write := func(t *testing.T, b repro.Bundle) string {
		t.Helper()
		js, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "bundle.json")
		if err := os.WriteFile(p, js, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	sched1 := sched.Schedule{sched.ThreadDecision(0)}
	if _, err := repro.Load(write(t, repro.Bundle{Version: repro.Version + 1, Schedule: sched1})); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v, want version error", err)
	}
	if _, err := repro.Load(write(t, repro.Bundle{Version: repro.Version})); err == nil || !strings.Contains(err.Error(), "schedule") {
		t.Errorf("empty schedule: err = %v, want schedule error", err)
	}
}
