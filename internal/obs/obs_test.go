package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/wsq"
)

// collector records every event it receives, for assertions. It copies
// each event: the engine reuses its execution and cache events.
type collector struct {
	mu       sync.Mutex
	execs    []obs.ExecutionEvent
	starts   []obs.BoundStart
	dones    []obs.BoundComplete
	bugs     []obs.BugEvent
	cache    []obs.CacheEvent
	searches []obs.SearchEvent
}

func (c *collector) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev := ev.(type) {
	case *obs.ExecutionEvent:
		c.execs = append(c.execs, *ev)
	case *obs.BoundStart:
		c.starts = append(c.starts, *ev)
	case *obs.BoundComplete:
		c.dones = append(c.dones, *ev)
	case *obs.BugEvent:
		c.bugs = append(c.bugs, *ev)
	case *obs.CacheEvent:
		c.cache = append(c.cache, *ev)
	case *obs.SearchEvent:
		c.searches = append(c.searches, *ev)
	}
}

// TestCountersMatchResult checks the telemetry against the ground truth of
// real searches — ICB runs of the work-stealing queue at bound 2 with the
// work-item table on, sequential and on two workers: Metrics agrees with
// the Result on every counter, per-bound and per-worker executions add up,
// per-worker steals agree with the profiler, and the cache_hit totals are
// search-wide.
func TestCountersMatchResult(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var (
				met obs.Metrics
				col collector
			)
			prf := prof.New(0)
			prog := wsq.Program(wsq.Correct, wsq.Params{})
			res := core.Explore(prog, core.ParallelICB{Workers: workers}, core.Options{
				MaxPreemptions: 2,
				CheckRaces:     true,
				StateCache:     true,
				Profiler:       prf,
				Sink:           obs.Multi(&met, &col),
			})
			checkMetricsMatch(t, &met, res, workers, res.Executions)
			checkCacheEvents(t, col.cache, col.searches)

			if len(col.execs) != res.Executions {
				t.Errorf("execution events = %d, executions = %d", len(col.execs), res.Executions)
			}
			// Bounds 0, 1 and 2 each start and complete exactly once.
			if len(col.starts) != 3 || len(col.dones) != 3 {
				t.Errorf("bound events = %d starts / %d completes, want 3/3", len(col.starts), len(col.dones))
			}
			if len(col.searches) != 1 {
				t.Fatalf("search events = %d, want 1", len(col.searches))
			}
			sd := col.searches[0]
			if sd.Executions != res.Executions || sd.BoundCompleted != res.BoundCompleted {
				t.Errorf("search event %+v disagrees with Result (execs=%d boundCompleted=%d)",
					sd, res.Executions, res.BoundCompleted)
			}
			if len(col.cache) != res.CacheHits {
				t.Errorf("cache_hit events = %d, Result.CacheHits = %d", len(col.cache), res.CacheHits)
			}
			if res.CacheHits == 0 {
				t.Error("no cache hits: the run does not exercise cache_hit totals")
			}

			// BoundStats mirror the per-bound structure with wall time.
			var statExecs int
			for _, bs := range res.BoundStats {
				statExecs += bs.Executions
				if bs.Duration < 0 {
					t.Errorf("bound %d has negative duration %v", bs.Bound, bs.Duration)
				}
			}
			if statExecs != res.Executions {
				t.Errorf("sum of BoundStat executions = %d, want %d", statExecs, res.Executions)
			}

			snap := met.Snapshot()
			if len(snap.Bounds) != 3 {
				t.Errorf("snapshot bounds = %+v, want 3", snap.Bounds)
			}
			profWorkers := prf.Profile().Workers
			for _, w := range snap.Workers {
				var steals int64
				for _, pw := range profWorkers {
					if pw.Worker == w.Worker {
						steals = pw.Steals
					}
				}
				if w.Steals != steals {
					t.Errorf("worker %d: Metrics steals = %d, profiler steals = %d", w.Worker, w.Steals, steals)
				}
			}
		})
	}
}

// TestBranchingSamplesIndependentOfWorkers checks that each execution's
// Knuth branching product is computed from that execution alone: an
// uncached search runs the same executions at every worker count, so the
// per-bound multisets of products must be identical at one and two
// workers, however the workers interleave.
func TestBranchingSamplesIndependentOfWorkers(t *testing.T) {
	prog := bluetooth.Benchmark().Correct
	samples := func(workers int) map[int][]float64 {
		var col collector
		core.Explore(prog, core.ParallelICB{Workers: workers}, core.Options{MaxPreemptions: 2, Sink: &col})
		out := map[int][]float64{}
		for _, ev := range col.execs {
			out[ev.Bound] = append(out[ev.Bound], ev.Branching)
		}
		for _, s := range out {
			slices.Sort(s)
		}
		return out
	}
	seq, par := samples(1), samples(2)
	if len(seq) != 3 {
		t.Fatalf("sequential samples cover bounds %v, want 0-2", seq)
	}
	for b, s := range seq {
		if s[len(s)-1] < 2 {
			t.Errorf("bound %d: no execution branched (largest product %v)", b, s[len(s)-1])
		}
		if !slices.Equal(s, par[b]) {
			t.Errorf("bound %d: branching products differ between 1 and 2 workers", b)
		}
	}
}

// checkMetricsMatch asserts that Metrics agrees with a search's Result on
// every counter, and that the per-bound executions — and, with several
// workers, the per-worker executions — add up to lifeExecs, the
// executions this process life ran (all of them unless resumed).
func checkMetricsMatch(t *testing.T, met *obs.Metrics, res core.Result, workers, lifeExecs int) {
	t.Helper()
	snap := met.Snapshot()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Executions", snap.Executions, int64(res.Executions)},
		{"States", snap.States, int64(res.States)},
		{"Classes", snap.Classes, int64(res.ExecutionClasses)},
		{"Bugs", snap.Bugs, int64(len(res.Bugs))},
		{"CacheHits", snap.CacheHits, int64(res.CacheHits)},
		{"CacheMisses", snap.CacheMisses, int64(res.CacheMisses)},
	} {
		if c.got != c.want {
			t.Errorf("Metrics.%s = %d, Result says %d", c.name, c.got, c.want)
		}
	}
	var perBound, perWorker int64
	for _, b := range snap.Bounds {
		perBound += b.Executions
	}
	for _, w := range snap.Workers {
		perWorker += w.Executions
	}
	if perBound != int64(lifeExecs) {
		t.Errorf("per-bound executions sum to %d, want %d", perBound, lifeExecs)
	}
	if workers == 1 && len(snap.Workers) != 0 {
		t.Errorf("sequential search recorded worker rows %+v", snap.Workers)
	}
	if workers > 1 && perWorker != int64(lifeExecs) {
		t.Errorf("per-worker executions sum to %d, want %d", perWorker, lifeExecs)
	}
}

// checkCacheEvents asserts that cache_hit events carry search-wide
// cumulative totals: every hit reports a distinct hit count, the largest
// is the search's final total, and no miss count exceeds the final one.
func checkCacheEvents(t *testing.T, hits []obs.CacheEvent, searches []obs.SearchEvent) {
	t.Helper()
	if len(searches) != 1 {
		t.Fatalf("search events = %d, want 1", len(searches))
	}
	sd := searches[0]
	seen := map[int64]bool{}
	var maxHits int64
	for _, h := range hits {
		if seen[h.Hits] {
			t.Errorf("hit count %d reported twice", h.Hits)
		}
		seen[h.Hits] = true
		maxHits = max(maxHits, h.Hits)
		if h.Misses > sd.CacheMisses {
			t.Errorf("cache_hit reports %d misses, the search ends with %d", h.Misses, sd.CacheMisses)
		}
	}
	if len(hits) > 0 && maxHits != sd.CacheHits {
		t.Errorf("largest cache_hit total = %d, search_done.cache_hits = %d", maxHits, sd.CacheHits)
	}
}

// finalSnapshot keeps a search's final snapshot, serialized at capture
// time (the engine mutates the state afterwards).
type finalSnapshot struct{ js []byte }

func (f *finalSnapshot) Due() bool { return false }
func (f *finalSnapshot) Capture(st *core.SearchState, final bool) {
	if final {
		f.js, _ = json.Marshal(st)
	}
}

// stopAfter raises the stop flag once the search has run n executions.
type stopAfter struct {
	n    int64
	seen atomic.Int64
	stop *atomic.Bool
}

func (s *stopAfter) Emit(ev obs.Event) {
	if _, ok := ev.(*obs.ExecutionEvent); ok && s.seen.Add(1) == s.n {
		s.stop.Store(true)
	}
}

// TestCountersMatchResultAfterResume stops cached two-worker searches at
// several execution counts and resumes each stop snapshot at one and at
// two workers: Metrics still agrees with the Result (the restored
// counters included), and cache_hit totals include the restored base.
func TestCountersMatchResultAfterResume(t *testing.T) {
	prog := wsq.Program(wsq.Correct, wsq.Params{})
	opts := func() core.Options {
		return core.Options{MaxPreemptions: 2, CheckRaces: true, StateCache: true}
	}
	total := int64(core.Explore(prog, core.ParallelICB{Workers: 2}, opts()).Executions)
	for _, n := range []int64{total / 3, total / 2, total * 3 / 4} {
		snap := &finalSnapshot{}
		stop := &atomic.Bool{}
		opt := opts()
		opt.Checkpoint, opt.Stop, opt.Sink = snap, stop, &stopAfter{n: n, stop: stop}
		core.Explore(prog, core.ParallelICB{Workers: 2}, opt)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("stop=%d/workers=%d", n, workers), func(t *testing.T) {
				var st core.SearchState
				if err := json.Unmarshal(snap.js, &st); err != nil {
					t.Fatal(err)
				}
				var (
					met obs.Metrics
					col collector
				)
				ropt := opts()
				ropt.Resume = &st
				ropt.Sink = obs.Multi(&met, &col)
				res := core.Explore(prog, core.ParallelICB{Workers: workers}, ropt)
				if st.CacheHits == 0 || len(col.cache) == 0 {
					t.Fatalf("restored %d hits, %d new: the resume does not exercise the restored base",
						st.CacheHits, len(col.cache))
				}
				checkMetricsMatch(t, &met, res, workers, res.Executions-st.Result.Executions)
				checkCacheEvents(t, col.cache, col.searches)
			})
		}
	}
}

// TestNDJSONRoundTrip drives a search through the NDJSON sink and parses
// every emitted line back.
func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	nd := obs.NewNDJSON(&buf)
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	res := core.Explore(prog, core.ICB{}, core.Options{
		MaxPreemptions: 1,
		CheckRaces:     true,
		Sink:           nd,
	})
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	counts := map[string]int{}
	for i, line := range lines {
		var env struct {
			Event string          `json:"event"`
			Seq   int64           `json:"seq"`
			V     int             `json:"v"`
			TMS   float64         `json:"t_ms"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if env.Event == "" || len(env.Data) == 0 {
			t.Fatalf("line %d has an empty envelope: %s", i+1, line)
		}
		if env.Seq != int64(i) {
			t.Fatalf("line %d has seq %d, want %d (gapless monotonic)", i+1, env.Seq, i)
		}
		if env.V != obs.NDJSONSchemaVersion {
			t.Fatalf("line %d has schema version %d, want %d", i+1, env.V, obs.NDJSONSchemaVersion)
		}
		counts[env.Event]++
	}
	if counts["header"] != 1 || lines[0] == "" || !strings.Contains(lines[0], `"event":"header"`) {
		t.Errorf("stream must start with exactly one header line; counts=%v first=%s", counts, lines[0])
	}
	if counts["execution_done"] != res.Executions {
		t.Errorf("execution_done lines = %d, executions = %d", counts["execution_done"], res.Executions)
	}
	if counts["search_done"] != 1 {
		t.Errorf("search_done lines = %d, want 1", counts["search_done"])
	}
	if counts["bound_start"] != 2 || counts["bound_complete"] != 2 {
		t.Errorf("bound lines = %d starts / %d completes, want 2/2",
			counts["bound_start"], counts["bound_complete"])
	}
}

// TestDisabledPathAllocationFree pins the cost of telemetry: Multi of
// nothing is a nil sink (the engine's one nil-check), and Metrics folds
// the hot events into its counters without allocating.
func TestDisabledPathAllocationFree(t *testing.T) {
	var nilMet *obs.Metrics
	if sink := obs.Multi(nil, nilMet); sink != nil {
		t.Fatalf("Multi of nil sinks = %v, want nil", sink)
	}
	var met obs.Metrics
	exec := obs.ExecutionEvent{Execution: 1, Steps: 10, Bound: 2, Worker: 1, Stolen: true}
	hit := obs.CacheEvent{Hits: 1}
	done := obs.BoundComplete{Bound: 2, DurationNS: 100}
	var sink obs.Sink = &met
	allocs := testing.AllocsPerRun(1000, func() {
		sink.Emit(&exec)
		sink.Emit(&hit)
		sink.Emit(&done)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocates %.1f per emission, want 0", allocs)
	}
}

// TestMetricsBoundClamping checks out-of-range bounds fold into the edge
// slots instead of panicking.
func TestMetricsBoundClamping(t *testing.T) {
	var m obs.Metrics
	m.Emit(&obs.ExecutionEvent{Execution: 1, Bound: -1})
	m.Emit(&obs.ExecutionEvent{Execution: 2, Bound: obs.MaxTrackedBounds + 5})
	if got := m.BoundExecutions(0); got != 1 {
		t.Errorf("bound -1 not folded into slot 0: %d", got)
	}
	if got := m.BoundExecutions(obs.MaxTrackedBounds - 1); got != 1 {
		t.Errorf("overflow bound not folded into last slot: %d", got)
	}
}

// TestProgressReportsRateLimited checks the progress reporter prints at
// most one per-execution line per interval but never drops bound or
// search-completion lines.
func TestProgressReportsRateLimited(t *testing.T) {
	var buf bytes.Buffer
	p := obs.NewProgress(&buf, time.Second)
	now := time.Unix(0, 0)
	p.SetClock(func() time.Time { return now })

	for i := 1; i <= 100; i++ {
		p.Emit(&obs.ExecutionEvent{Execution: i, Bound: 0})
	}
	if got := strings.Count(buf.String(), "/s)"); got > 1 {
		t.Errorf("%d per-execution lines within one interval, want at most 1", got)
	}
	now = now.Add(2 * time.Second)
	p.Emit(&obs.ExecutionEvent{Execution: 101, Bound: 0, Status: "terminated"})
	if !strings.Contains(buf.String(), "execs=101") {
		t.Errorf("no progress line after the interval elapsed:\n%s", buf.String())
	}

	buf.Reset()
	p.Emit(&obs.BoundStart{Bound: 1, Queue: 42})
	p.Emit(&obs.BoundComplete{Bound: 1, Executions: 7, DurationNS: int64(time.Millisecond)})
	p.Emit(&obs.BugEvent{Kind: "deadlock", Message: "stuck"})
	p.Emit(&obs.SearchEvent{Strategy: "icb", Executions: 7})
	for _, want := range []string{"[bound 1] start", "[bound 1] complete", "[bug] deadlock", "[search done]"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing unconditional line %q:\n%s", want, buf.String())
		}
	}
}

// TestMultiFansOut checks fan-out and the dropping of nil and typed-nil
// sinks.
func TestMultiFansOut(t *testing.T) {
	if obs.Multi() != nil {
		t.Error("Multi() should be nil (telemetry disabled)")
	}
	var nilMet *obs.Metrics
	var nilND *obs.NDJSON
	if obs.Multi(nil, nilMet, nilND) != nil {
		t.Error("Multi of nil and typed-nil sinks should be nil")
	}
	var a, b collector
	if got := obs.Multi(&a, nil, nilMet); got != obs.Sink(&a) {
		t.Error("Multi with one non-nil sink should return it unwrapped")
	}
	m := obs.Multi(&a, nilMet, &b)
	m.Emit(&obs.ExecutionEvent{Execution: 1})
	m.Emit(&obs.BugEvent{Kind: "panic"})
	if len(a.execs) != 1 || len(b.execs) != 1 || len(a.bugs) != 1 || len(b.bugs) != 1 {
		t.Errorf("Multi did not fan out: a=%d/%d b=%d/%d", len(a.execs), len(a.bugs), len(b.execs), len(b.bugs))
	}
}

// TestSnapshotTruncated checks the overflow contract of the per-bound
// arrays: observations beyond MaxTrackedBounds fold into the last slot and
// the snapshot says so, while in-range observations do not raise the flag.
func TestSnapshotTruncated(t *testing.T) {
	var m obs.Metrics
	m.Emit(&obs.ExecutionEvent{Execution: 1, Bound: 0})
	m.Emit(&obs.ExecutionEvent{Execution: 2, Bound: obs.MaxTrackedBounds - 1})
	if snap := m.Snapshot(); snap.Truncated {
		t.Errorf("in-range observations set Truncated: %+v", snap)
	}
	m.Emit(&obs.ExecutionEvent{Execution: 3, Bound: obs.MaxTrackedBounds})
	snap := m.Snapshot()
	if !snap.Truncated {
		t.Error("overflow observation did not set Truncated")
	}
	if got := m.BoundExecutions(obs.MaxTrackedBounds - 1); got != 2 {
		t.Errorf("last slot = %d, want the in-range and folded observations (2)", got)
	}
	// Reading an out-of-range bound is not a lost sample; a fresh Metrics
	// read at a wild bound stays untruncated.
	var clean obs.Metrics
	_ = clean.BoundExecutions(obs.MaxTrackedBounds + 10)
	if clean.Snapshot().Truncated {
		t.Error("read-side clamp set Truncated")
	}
}

// TestSearchDoneIncludesCacheTotals checks the final progress line carries
// the work-item-table totals when caching ran, and omits them when it did
// not, under a deterministic clock.
func TestSearchDoneIncludesCacheTotals(t *testing.T) {
	var buf bytes.Buffer
	p := obs.NewProgress(&buf, time.Second)
	now := time.Unix(0, 0)
	p.SetClock(func() time.Time { return now })

	p.Emit(&obs.SearchEvent{Strategy: "icb", Executions: 9, CacheHits: 3, CacheMisses: 7})
	if !strings.Contains(buf.String(), " cache=3/10") {
		t.Errorf("search-done line omits cache totals:\n%s", buf.String())
	}

	buf.Reset()
	p.Emit(&obs.SearchEvent{Strategy: "icb", Executions: 9})
	if strings.Contains(buf.String(), "cache=") {
		t.Errorf("search-done line shows cache totals for a cacheless run:\n%s", buf.String())
	}
}

// TestProgressEstimateSuffix checks the per-execution line renders the
// attached estimator's view of the current bound.
func TestProgressEstimateSuffix(t *testing.T) {
	var buf bytes.Buffer
	p := obs.NewProgress(&buf, time.Second)
	now := time.Unix(0, 0)
	p.SetClock(func() time.Time { return now })
	p.SetEstimator(estimateStub{obs.BoundEstimate{
		Bound: 2, Executions: 41, EstTotal: 100, Fraction: 0.41,
		ETANanos: (3*time.Minute + 12*time.Second).Nanoseconds(),
	}})

	now = now.Add(2 * time.Second)
	p.Emit(&obs.ExecutionEvent{Execution: 41, Bound: 2})
	if want := "bound 2: 41% explored, ~3m12s left"; !strings.Contains(buf.String(), want) {
		t.Errorf("progress line missing %q:\n%s", want, buf.String())
	}
}

// estimateStub is a canned obs.EstimateSource.
type estimateStub []obs.BoundEstimate

func (s estimateStub) Estimates() []obs.BoundEstimate { return s }

// TestConcurrentSinkEmission hammers the NDJSON sink through Multi from
// many goroutines (as the engine and an HTTP handler might) and asserts —
// under -race — that every line of output is a well-formed, non-interleaved
// JSON object and nothing was lost.
func TestConcurrentSinkEmission(t *testing.T) {
	var buf syncBuffer
	nd := obs.NewNDJSON(&buf)
	tee := obs.Multi(nd, &obs.Metrics{}, obs.NewProgress(io.Discard, 0))

	const goroutines, events = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tee.Emit(&obs.ExecutionEvent{Execution: g*events + i + 1, Bound: g})
				tee.Emit(&obs.CacheEvent{Hits: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := goroutines*events*2 + 1; len(lines) != want { // +1: header
		t.Fatalf("lines = %d, want %d", len(lines), want)
	}
	counts := map[string]int{}
	seqs := make(map[int64]bool, len(lines))
	for i, line := range lines {
		var env struct {
			Event string          `json:"event"`
			Seq   int64           `json:"seq"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %d is interleaved or malformed: %v\n%s", i+1, err, line)
		}
		if seqs[env.Seq] {
			t.Fatalf("duplicate seq %d", env.Seq)
		}
		seqs[env.Seq] = true
		counts[env.Event]++
	}
	for s := int64(0); s < int64(len(lines)); s++ {
		if !seqs[s] {
			t.Fatalf("seq %d missing: gap in the line sequence", s)
		}
	}
	if counts["execution_done"] != goroutines*events || counts["cache_hit"] != goroutines*events {
		t.Errorf("event counts = %v, want %d of each kind", counts, goroutines*events)
	}
}

// TestConcurrentSnapshotVsObserve races Snapshot against counter writes at
// bounds on both sides of the MaxTrackedBounds clamp, plus the interface
// attachments (SetEstimator/SetCoverage) that Snapshot dereferences. Under
// -race this pins that the dashboard can read while a search records at any
// bound, including ones folded into the overflow slot.
func TestConcurrentSnapshotVsObserve(t *testing.T) {
	var m obs.Metrics
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // the dashboard side
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := m.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("snapshot does not marshal: %v", err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // attachment churn while snapshots run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.SetEstimator(nil)
				m.SetCoverage(nil)
			}
		}
	}()

	const writers, perWriter = 4, 2000
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				// Spread bounds across the tracked range and past it, so
				// the overflow slot is hammered concurrently too.
				m.Emit(&obs.ExecutionEvent{
					Execution: w*perWriter + i + 1,
					Bound:     (w*perWriter + i) % (obs.MaxTrackedBounds + 16),
					Worker:    w,
				})
				m.Emit(&obs.BoundComplete{Bound: obs.MaxTrackedBounds + i, DurationNS: 1})
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	snap := m.Snapshot()
	if snap.Executions != writers*perWriter {
		t.Errorf("executions = %d, want %d", snap.Executions, writers*perWriter)
	}
	if !snap.Truncated {
		t.Error("overflow-bound observations did not set Truncated")
	}
	var sum int64
	for _, b := range snap.Bounds {
		sum += b.Executions
	}
	if sum != int64(writers*perWriter) {
		t.Errorf("per-bound executions sum to %d, want %d", sum, writers*perWriter)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer; NDJSON serializes writes
// internally, but the final Flush may race a test-side Read without it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// resumeProbe records the resume events and Metrics as they stand at the
// first execution of a (sequential) resumed search.
type resumeProbe struct {
	met     *obs.Metrics
	resumes []obs.ResumeEvent
	first   *obs.Snapshot
}

func (p *resumeProbe) Emit(ev obs.Event) {
	switch ev := ev.(type) {
	case *obs.ResumeEvent:
		p.resumes = append(p.resumes, *ev)
	case *obs.ExecutionEvent:
		if p.first == nil {
			s := p.met.Snapshot()
			p.first = &s
		}
	}
}

// TestResumeCountersLiveFromStart checks that a library caller resuming a
// search sees the restored counters from its first execution on, not only
// once search_done arrives: Explore itself reports the resume, once and
// before any execution.
func TestResumeCountersLiveFromStart(t *testing.T) {
	prog := wsq.Program(wsq.StealUnlocked, wsq.Params{})
	opts := func() core.Options { return core.Options{MaxPreemptions: 2} }
	total := int64(core.Explore(prog, core.ICB{}, opts()).Executions)
	snap := &finalSnapshot{}
	stop := &atomic.Bool{}
	opt := opts()
	opt.Checkpoint, opt.Stop, opt.Sink = snap, stop, &stopAfter{n: total / 2, stop: stop}
	core.Explore(prog, core.ICB{}, opt)
	var st core.SearchState
	if err := json.Unmarshal(snap.js, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Result.Bugs) < 2 {
		t.Fatalf("stop snapshot holds %d bugs; the check needs several", len(st.Result.Bugs))
	}

	var met obs.Metrics
	if cb := met.Snapshot().CurBound; cb != -1 {
		t.Errorf("fresh Metrics CurBound = %d, want -1", cb)
	}
	p := &resumeProbe{met: &met}
	ropt := opts()
	ropt.Resume = &st
	ropt.Sink = obs.Multi(&met, p)
	res := core.Explore(prog, core.ICB{}, ropt)
	want := obs.ResumeEvent{
		Bound:      st.Bound,
		Executions: st.Result.Executions,
		Bugs:       len(st.Result.Bugs),
		SeedQueue:  len(st.SeedQueue),
		NextWork:   len(st.NextWork),
	}
	if len(p.resumes) != 1 || p.resumes[0] != want {
		t.Errorf("resume events = %+v, want exactly %+v", p.resumes, want)
	}
	if p.first == nil {
		t.Fatal("the resumed search ran no execution")
	}
	if p.first.Executions != int64(st.Result.Executions)+1 || p.first.Bugs < int64(len(st.Result.Bugs)) {
		t.Errorf("at the first resumed execution Metrics shows %d executions and %d bugs, want %d and at least %d",
			p.first.Executions, p.first.Bugs, st.Result.Executions+1, len(st.Result.Bugs))
	}
	if s := met.Snapshot(); s.Executions != int64(res.Executions) || s.Bugs != int64(len(res.Bugs)) {
		t.Errorf("final Metrics %d executions, %d bugs; Result %d, %d", s.Executions, s.Bugs, res.Executions, len(res.Bugs))
	}
}
