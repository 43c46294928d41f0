// Package repro turns found bugs into durable, self-contained reproduction
// bundles and replays them. The point (following Sthread's "every failure
// must yield a deterministic replay" discipline) is that a bug surfaced by
// hours of bounded search must survive the process that found it: a Writer
// registered as an obs.Sink persists, at the moment a BugEvent arrives, a
// bundle directory holding
//
//	bundle.json   machine-readable manifest: schema version, search
//	              metadata (program, strategy, seed, bound, mode, race
//	              detection), the bug report, and the full decision
//	              schedule as a JSON array of compact tokens ("t0", "d1")
//	swimlane.txt  the exposing execution rendered as a thread-per-column
//	              diagram, re-derived by replaying the schedule
//	trace.json    the same execution as Chrome trace-event JSON, loadable
//	              in Perfetto (package obs/trace)
//	report.txt    a short human-readable summary with the exact
//	              icb -replay invocation that reproduces the bug
//	profile.json  the search profiler's snapshot at the moment the bug
//	              was bundled (only when the search ran with -profile):
//	              how much search — executions, wall clock per phase,
//	              redundant re-exploration — the bug cost to reach
//
// Load reads a bundle back (from the directory or the bundle.json path) and
// Replay feeds its schedule through sched.ReplayController with the
// recorded search semantics — scheduling-point mode, step limit, race
// detection — verifying that the same defect reproduces deterministically.
package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/trace"
	"icb/internal/sched"
)

// Version is the bundle schema version written by this package. Load
// rejects bundles with a newer version than it understands.
const Version = 1

// manifestName is the machine-readable file inside a bundle directory.
const manifestName = "bundle.json"

// Meta records how the search that exposed the bug was configured — enough
// to rebuild the program under test and replay under identical semantics.
type Meta struct {
	// Program is the benchmark name ("wsq", "dryad", ...).
	Program string `json:"program"`
	// BugVariant is the seeded bug variant id, empty for the correct version.
	BugVariant string `json:"bug_variant,omitempty"`
	// Strategy is the search strategy that found the bug.
	Strategy string `json:"strategy,omitempty"`
	// Seed is the strategy's random seed (meaningful for random/pct).
	Seed int64 `json:"seed,omitempty"`
	// Bound is the search's preemption bound (-1 = unbounded).
	Bound int `json:"bound"`
	// Mode is the scheduling-point mode ("sync-only" or "every-access").
	Mode string `json:"mode"`
	// MaxSteps is the per-execution step limit (0 = sched default).
	MaxSteps int `json:"max_steps,omitempty"`
	// CheckRaces and Goldilocks record the race-detection configuration;
	// replays must run the same detector or race bugs cannot reproduce.
	CheckRaces bool `json:"check_races"`
	Goldilocks bool `json:"goldilocks,omitempty"`
	// BPOR records that bounded partial-order reduction was active in the
	// search that found the bug. Replaying the bundle's schedule does not
	// depend on it, but re-searching under the same configuration does.
	BPOR bool `json:"bpor,omitempty"`
}

// NewMeta captures a search configuration for bundles.
func NewMeta(program, bugVariant, strategy string, seed int64, opt core.Options) Meta {
	return Meta{
		Program:    program,
		BugVariant: bugVariant,
		Strategy:   strategy,
		Seed:       seed,
		Bound:      opt.MaxPreemptions,
		Mode:       opt.Mode.String(),
		MaxSteps:   opt.MaxSteps,
		CheckRaces: opt.CheckRaces,
		Goldilocks: opt.UseGoldilocks,
		BPOR:       opt.BPOR,
	}
}

// Options reconstructs the replay-relevant exploration options.
func (m Meta) Options() core.Options {
	opt := core.Options{
		MaxPreemptions: m.Bound,
		MaxSteps:       m.MaxSteps,
		CheckRaces:     m.CheckRaces,
		UseGoldilocks:  m.Goldilocks,
		BPOR:           m.BPOR,
	}
	if m.Mode == sched.ModeEveryAccess.String() {
		opt.Mode = sched.ModeEveryAccess
	}
	return opt
}

// BugInfo is the recorded defect.
type BugInfo struct {
	// Kind is the bug classification ("deadlock", "data race", ...).
	Kind string `json:"kind"`
	// Message is the defect description.
	Message string `json:"message"`
	// Preemptions and Steps describe the exposing execution.
	Preemptions int `json:"preemptions"`
	Steps       int `json:"steps"`
	// Execution is the 1-based index of the exposing execution in the
	// search that found it.
	Execution int `json:"execution"`
}

// Bundle is the manifest of one reproduction artifact.
type Bundle struct {
	// Version is the bundle schema version (see Version).
	Version int `json:"version"`
	// CreatedUnixNS is the bundle's creation time.
	CreatedUnixNS int64 `json:"created_unix_ns,omitempty"`
	// Build identifies the binary that wrote the bundle (obs.BuildInfo).
	Build string `json:"build,omitempty"`
	// Meta records the search configuration.
	Meta Meta `json:"meta"`
	// Bug is the recorded defect.
	Bug BugInfo `json:"bug"`
	// Schedule is the full decision log of the exposing execution; feeding
	// it through sched.ReplayController reproduces the bug exactly.
	Schedule sched.Schedule `json:"schedule"`

	// Dir is the directory the bundle lives in; set by Load and Writer,
	// not serialized.
	Dir string `json:"-"`
}

// SwimlanePath returns the bundle's rendered swimlane file.
func (b *Bundle) SwimlanePath() string { return filepath.Join(b.Dir, "swimlane.txt") }

// TracePath returns the bundle's Perfetto-loadable trace-event file.
func (b *Bundle) TracePath() string { return filepath.Join(b.Dir, "trace.json") }

// Writer is an obs.Sink that persists a bundle for every (deduplicated)
// BugEvent. Construct with NewWriter and register with the search via
// obs.Multi; it ignores every other event kind.
type Writer struct {
	mu    sync.Mutex
	dir   string
	prog  sched.Program
	meta  Meta
	now   func() time.Time
	n     int
	paths []string
	err   error
	prof  obs.ProfileSource
}

// NewWriter returns a Writer placing one bundle directory per bug under
// dir, replaying schedules against prog (the same program the search runs)
// to render swimlanes.
func NewWriter(dir string, prog sched.Program, meta Meta) *Writer {
	return &Writer{dir: dir, prog: prog, meta: meta, now: time.Now}
}

// SetClock replaces the writer's time source (tests).
func (w *Writer) SetClock(now func() time.Time) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// SetProfile attaches a search profiler; each bundle then includes a
// profile.json snapshot taken at the moment the bug was bundled, recording
// what the search spent to reach it.
func (w *Writer) SetProfile(p obs.ProfileSource) {
	w.mu.Lock()
	w.prof = p
	w.mu.Unlock()
}

// Bundles returns the directories written so far.
func (w *Writer) Bundles() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.paths...)
}

// Err returns the first error encountered while writing bundles. Bundle
// persistence must never abort a running search, so failures are recorded
// here instead of propagating into the engine.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// kindSlug turns a bug kind into a directory-name-safe slug.
func kindSlug(kind string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, kind)
}

// Emit implements obs.Sink: it writes one bundle for each BugEvent.
func (w *Writer) Emit(e obs.Event) {
	ev, ok := e.(*obs.BugEvent)
	if !ok {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if ev.Schedule == "" {
		// No replayable schedule (e.g. the explicit-state checker reports
		// paths, not schedules): nothing to bundle.
		return
	}
	schedule, err := sched.ParseSchedule(ev.Schedule)
	if err != nil {
		w.fail(fmt.Errorf("bug schedule: %w", err))
		return
	}
	w.n++
	b := &Bundle{
		Version:       Version,
		CreatedUnixNS: w.now().UnixNano(),
		Build:         obs.BuildInfo(),
		Meta:          w.meta,
		Bug: BugInfo{
			Kind:        ev.Kind,
			Message:     ev.Message,
			Preemptions: ev.Preemptions,
			Steps:       ev.Steps,
			Execution:   ev.Execution,
		},
		Schedule: schedule,
		Dir:      filepath.Join(w.dir, fmt.Sprintf("bug-%03d-%s", w.n, kindSlug(ev.Kind))),
	}
	if err := w.write(b); err != nil {
		w.fail(err)
		return
	}
	w.paths = append(w.paths, b.Dir)
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// write persists one bundle directory: manifest, swimlane, report.
func (w *Writer) write(b *Bundle) error {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.Dir, manifestName), append(js, '\n'), 0o644); err != nil {
		return err
	}
	// Re-derive the swimlane and the Perfetto trace by replaying the
	// schedule; the replay also sanity-checks the bundle the moment it is
	// written.
	out, _ := core.ReplayBugs(w.prog, b.Schedule, b.Meta.Options())
	if err := os.WriteFile(b.SwimlanePath(), []byte(sched.Swimlane(out)), 0o644); err != nil {
		return err
	}
	tj, err := trace.Marshal(b.Meta.Program, out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(b.TracePath(), append(tj, '\n'), 0o644); err != nil {
		return err
	}
	if w.prof != nil {
		pj, err := json.MarshalIndent(w.prof.Profile(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(b.Dir, "profile.json"), append(pj, '\n'), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(b.Dir, "report.txt"), []byte(b.report()), 0o644)
}

// report renders the human-readable summary.
func (b *Bundle) report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "BUG: %s: %s\n", b.Bug.Kind, b.Bug.Message)
	fmt.Fprintf(&sb, "exposing execution: #%d, %d steps, %d preemptions\n",
		b.Bug.Execution, b.Bug.Steps, b.Bug.Preemptions)
	fmt.Fprintf(&sb, "search: program=%s", b.Meta.Program)
	if b.Meta.BugVariant != "" {
		fmt.Fprintf(&sb, " bug=%s", b.Meta.BugVariant)
	}
	fmt.Fprintf(&sb, " strategy=%s bound=%d mode=%s races=%v\n",
		b.Meta.Strategy, b.Meta.Bound, b.Meta.Mode, b.Meta.CheckRaces)
	fmt.Fprintf(&sb, "schedule (%d decisions): %s\n", len(b.Schedule), b.Schedule)
	fmt.Fprintf(&sb, "\nreplay with:\n  icb -replay %s\n", b.Dir)
	return sb.String()
}

// Load reads a bundle from path, which may name the bundle directory or
// its bundle.json directly.
func Load(path string) (*Bundle, error) {
	dir := path
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		path = filepath.Join(path, manifestName)
	} else {
		dir = filepath.Dir(path)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(js, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Version > Version {
		return nil, fmt.Errorf("%s: bundle version %d is newer than supported %d", path, b.Version, Version)
	}
	if len(b.Schedule) == 0 {
		return nil, fmt.Errorf("%s: bundle has no schedule", path)
	}
	b.Dir = dir
	return &b, nil
}

// Result is the outcome of replaying a bundle.
type Result struct {
	// Outcome is the replayed execution (trace recorded).
	Outcome sched.Outcome
	// Bugs are all defects the replay exposed.
	Bugs []core.Bug
	// Match is the replayed bug matching the recorded kind and message,
	// nil when the bundle failed to reproduce.
	Match *core.Bug
	// Swimlane is the replayed execution's rendered diagram.
	Swimlane string
}

// Reproduced reports that the recorded defect fired again.
func (r *Result) Reproduced() bool { return r.Match != nil }

// Replay feeds the bundle's schedule back through the replay controller
// under the recorded search semantics and checks the recorded defect
// reproduces. prog must be the same program the bundle was recorded
// against (cmd/icb rebuilds it from Meta.Program/Meta.BugVariant).
func Replay(b *Bundle, prog sched.Program) *Result {
	out, bugs := core.ReplayBugs(prog, b.Schedule, b.Meta.Options())
	r := &Result{Outcome: out, Bugs: bugs, Swimlane: sched.Swimlane(out)}
	for i := range bugs {
		if bugs[i].Kind.String() == b.Bug.Kind && bugs[i].Message == b.Bug.Message {
			r.Match = &bugs[i]
			break
		}
	}
	return r
}
