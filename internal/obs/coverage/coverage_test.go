package coverage_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/coverage"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// preemptionSum is a Sink that totals the engine's own per-execution
// preemption counts, giving the tests an independent ground truth.
type preemptionSum struct {
	total int64
}

func (p *preemptionSum) Emit(ev obs.Event) {
	if ev, ok := ev.(*obs.ExecutionEvent); ok {
		p.total += int64(ev.Preemptions)
	}
}

// explore runs the work-stealing queue under ICB up to maxPreemptions with a
// fresh recorder attached and returns the recorder's atlas plus the engine's
// preemption total.
func explore(t *testing.T, maxPreemptions int) (coverage.Atlas, int64) {
	t.Helper()
	rec := coverage.NewRecorder("wsq")
	sum := &preemptionSum{}
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	res := core.Explore(prog, core.ICB{}, core.Options{
		MaxPreemptions: maxPreemptions,
		Coverage:       rec,
		Sink:           sum,
	})
	if res.Executions == 0 {
		t.Fatal("exploration ran no executions")
	}
	return rec.Atlas(), sum.total
}

// TestAtlasOnWSQBound2 is the acceptance check from the issue: on the
// work-stealing queue at bound 2, the atlas lists every scheduling point the
// search reached with a nonzero reached-count, and the preemption-site
// counts sum exactly to the engine's own preemption total.
func TestAtlasOnWSQBound2(t *testing.T) {
	atlas, enginePreemptions := explore(t, 2)
	if len(atlas.Sites) == 0 {
		t.Fatal("atlas has no sites after an exhaustive bound-2 search")
	}
	for _, s := range atlas.Sites {
		if s.Program != "wsq" {
			t.Errorf("site %+v: program = %q, want wsq", s.Key, s.Program)
		}
		if len(s.Bounds) == 0 {
			t.Errorf("site %+v has no bound entries", s.Key)
		}
		for _, bc := range s.Bounds {
			if bc.Reached <= 0 {
				t.Errorf("site %+v bound %d: reached = %d, want > 0", s.Key, bc.Bound, bc.Reached)
			}
			if bc.Bound < 0 || bc.Bound > 2 {
				t.Errorf("site %+v: bound %d outside the ICB range [0,2]", s.Key, bc.Bound)
			}
			if bc.Preempted > bc.Reached {
				t.Errorf("site %+v bound %d: preempted %d > reached %d", s.Key, bc.Bound, bc.Preempted, bc.Reached)
			}
			if len(bc.Choices) == 0 {
				t.Errorf("site %+v bound %d: no next-thread choices recorded", s.Key, bc.Bound)
			}
		}
	}
	st := coverage.Summarize(atlas)
	if st.Preempted != enginePreemptions {
		t.Errorf("atlas preempted total = %d, engine counted %d preemptions", st.Preempted, enginePreemptions)
	}
	if enginePreemptions == 0 {
		t.Error("bound-2 search produced no preemptions at all; ground truth is vacuous")
	}
	if st.PSites == 0 {
		t.Error("no site recorded a preemption")
	}
}

// TestMergeIsSupersetOfBothRuns checks the incremental-campaign property:
// the merge of two runs' atlases contains each run, and a deeper run's
// atlas strictly extends a shallower one.
func TestMergeIsSupersetOfBothRuns(t *testing.T) {
	a, _ := explore(t, 1)
	b, _ := explore(t, 2)
	m := coverage.Merge(a, b)
	if !coverage.Contains(m, a) {
		t.Error("merged atlas does not contain the bound-1 run")
	}
	if !coverage.Contains(m, b) {
		t.Error("merged atlas does not contain the bound-2 run")
	}
	if !coverage.Contains(b, a) {
		t.Error("bound-2 atlas does not contain the bound-1 atlas (ICB replays shallower bounds)")
	}
	if coverage.Contains(a, b) {
		t.Error("bound-1 atlas claims to contain the bound-2 atlas")
	}
	if d := coverage.Diff(m, b); len(d.Sites) != 0 {
		t.Errorf("Diff(merge, bound-2 run) = %d sites, want none", len(d.Sites))
	}
	// The diff against the shallower run must carry only bound-2 evidence.
	d := coverage.Diff(a, b)
	if len(d.Sites) == 0 {
		t.Fatal("Diff(bound-1, bound-2) is empty; bound 2 added nothing?")
	}
	for _, s := range d.Sites {
		for _, bc := range s.Bounds {
			if bc.Bound != 2 {
				t.Errorf("diff site %+v carries bound %d; only bound 2 should be novel", s.Key, bc.Bound)
			}
		}
	}
}

// TestMergeSumsCounters checks the counter algebra on handcrafted atlases:
// shared (site, bound) entries sum reached/preempted and union choices.
func TestMergeSumsCounters(t *testing.T) {
	k := coverage.Key{Program: "p", Kind: "read", Loc: "x", Thread: "main"}
	a := coverage.Atlas{Sites: []coverage.Site{{
		Key:    k,
		Bounds: []coverage.BoundCount{{Bound: 1, Reached: 3, Preempted: 1, Choices: []string{"main"}}},
	}}}
	b := coverage.Atlas{Sites: []coverage.Site{{
		Key:    k,
		Bounds: []coverage.BoundCount{{Bound: 1, Reached: 2, Preempted: 2, Choices: []string{"worker"}}},
	}}}
	m := coverage.Merge(a, b)
	if len(m.Sites) != 1 || len(m.Sites[0].Bounds) != 1 {
		t.Fatalf("merge shape = %+v, want one site with one bound", m)
	}
	bc := m.Sites[0].Bounds[0]
	if bc.Reached != 5 || bc.Preempted != 3 {
		t.Errorf("merged counters = reached %d preempted %d, want 5 and 3", bc.Reached, bc.Preempted)
	}
	if len(bc.Choices) != 2 || bc.Choices[0] != "main" || bc.Choices[1] != "worker" {
		t.Errorf("merged choices = %v, want [main worker]", bc.Choices)
	}
	// Inputs must be untouched.
	if a.Sites[0].Bounds[0].Reached != 3 || len(a.Sites[0].Bounds[0].Choices) != 1 {
		t.Errorf("Merge modified its first input: %+v", a.Sites[0])
	}
}

// TestDiffNovelChoicesOnly checks Diff keeps only choices the base has not
// taken, and reports nothing when the base already contains the run.
func TestDiffNovelChoicesOnly(t *testing.T) {
	k := coverage.Key{Program: "p", Kind: "write", Loc: "y", Thread: "worker"}
	base := coverage.Atlas{Sites: []coverage.Site{{
		Key:    k,
		Bounds: []coverage.BoundCount{{Bound: 0, Reached: 1, Choices: []string{"main"}}},
	}}}
	cur := coverage.Atlas{Sites: []coverage.Site{{
		Key:    k,
		Bounds: []coverage.BoundCount{{Bound: 0, Reached: 4, Choices: []string{"main", "worker"}}},
	}}}
	d := coverage.Diff(base, cur)
	if len(d.Sites) != 1 || len(d.Sites[0].Bounds) != 1 {
		t.Fatalf("diff = %+v, want one site with one bound", d)
	}
	if cs := d.Sites[0].Bounds[0].Choices; len(cs) != 1 || cs[0] != "worker" {
		t.Errorf("diff choices = %v, want [worker]", cs)
	}
	if d := coverage.Diff(cur, base); len(d.Sites) != 0 {
		t.Errorf("Diff(cur, base) = %+v, want empty (base adds nothing)", d)
	}
}

// TestMergeFileAccumulates checks the on-disk campaign file: the first merge
// creates it, a re-merge of the same atlas adds no sites, and the loaded
// file contains every contributing run.
func TestMergeFileAccumulates(t *testing.T) {
	atlas, _ := explore(t, 1)
	path := filepath.Join(t.TempDir(), "atlas.json")

	merged, added, err := coverage.MergeFile(path, atlas)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(atlas.Sites) {
		t.Errorf("first merge added %d sites, want %d", added, len(atlas.Sites))
	}
	merged2, added2, err := coverage.MergeFile(path, atlas)
	if err != nil {
		t.Fatal(err)
	}
	if added2 != 0 {
		t.Errorf("re-merging the same atlas added %d sites, want 0", added2)
	}
	if !coverage.Contains(merged2, merged) || !coverage.Contains(merged2, atlas) {
		t.Error("merged file lost coverage across merges")
	}
	loaded, err := coverage.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !coverage.Contains(loaded, atlas) || loaded.Version != coverage.AtlasVersion {
		t.Errorf("loaded atlas (version %d) does not contain the run", loaded.Version)
	}
}

// TestLoadRejectsFutureVersion checks the version gate on the atlas file.
func TestLoadRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	data := `{"version": ` + strconv.Itoa(coverage.AtlasVersion+1) + `, "sites": []}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := coverage.Load(path); err == nil {
		t.Error("Load accepted an atlas from a future version")
	}
}

// TestMergeFileCorruptionFailsGracefully pins the no-partial-mutation
// guarantee: merging into a corrupt atlas file returns a *CorruptError and
// leaves the damaged file byte-for-byte untouched for inspection, with no
// stray temp file alongside it.
func TestMergeFileCorruptionFailsGracefully(t *testing.T) {
	atlas, _ := explore(t, 1)
	dir := t.TempDir()

	cases := []struct {
		name, body string
	}{
		{"garbage", `{"version": 1, "sites": [truncated`},
		{"future-version", `{"version": ` + strconv.Itoa(coverage.AtlasVersion+5) + `, "sites": []}`},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := coverage.MergeFile(path, atlas)
		var ce *coverage.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: MergeFile returned %v, want *CorruptError", tc.name, err)
		}
		if ce.Path != path {
			t.Errorf("%s: CorruptError.Path = %q, want %q", tc.name, ce.Path, path)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, []byte(tc.body)) {
			t.Errorf("%s: MergeFile mutated the corrupt file", tc.name)
		}
		if _, err := os.Stat(path + ".tmp"); err == nil {
			t.Errorf("%s: stray temp file left behind", tc.name)
		}
	}

	// A plain I/O failure (path is a directory) is not a CorruptError.
	_, _, err := coverage.MergeFile(dir, atlas)
	var ce *coverage.CorruptError
	if err == nil || errors.As(err, &ce) {
		t.Errorf("unreadable path: got %v, want a non-corrupt I/O error", err)
	}
}

// TestRecorderConcurrentReadWrite hammers CoverageSites (the dashboard read
// path) while RecordPoint runs; under -race this pins the locking.
func TestRecorderConcurrentReadWrite(t *testing.T) {
	rec := coverage.NewRecorder("p")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.CoverageSites()
				rec.Atlas()
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		rec.RecordPoint(i%3, sched.PointInfo{
			SiteOp:         sched.Op{Kind: sched.OpRead},
			SiteVarName:    "v" + strconv.Itoa(i%7),
			SiteThreadName: "main",
			ChosenName:     "worker",
			Preempted:      i%2 == 0,
		})
	}
	close(stop)
	wg.Wait()
	if st := coverage.Summarize(rec.Atlas()); st.Reached != 5000 {
		t.Errorf("reached total = %d, want 5000", st.Reached)
	}
}
