package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"icb/internal/progs/txnmgr"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return b
}

func mustOracle(t *testing.T) *oracle {
	t.Helper()
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// shortConfig is a run of one pass with one set-up.
func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0, trace: trace, setupReps: 1, oracle: mustOracle(t)}
}

// TestShortRunEmitsEveryMetric runs every workload once timed and once
// traced and checks each run reports exactly the metrics BENCHMARK.json
// lists for it, with the listed units, and that every verdict is right.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			cfg := shortConfig(t, w, trace)
			run := runTimed
			if trace {
				run = runTraced
			}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w, trace, r.Correct, r.Attempted, r.Failed, r.mismatches)
			}
			want := units[trace]
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestWrongAnswerIsCounted plants one wrong known answer and checks the
// search it belongs to is counted as failed, in the timed run's
// failed/attempted and in the traced run's verdict_fail_frac, and is
// still timed.
func TestWrongAnswerIsCounted(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := shortConfig(t, wHunt, trace)
		e := cfg.oracle.Workloads[wHunt]["wsq.steal-unlocked"]
		wrong := *e.Bug
		wrong.Preemptions++
		e.Bug = &wrong
		cfg.oracle.Workloads[wHunt]["wsq.steal-unlocked"] = e
		run := runTimed
		if trace {
			run = runTraced
		}
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 {
			t.Fatalf("trace=%v: wrong answer not counted: correct=%v failed=%d", trace, r.Correct, r.Failed)
		}
		if !trace {
			if r.Attempted != 17 || r.Failed != 1 {
				t.Errorf("timed: attempted=%d failed=%d, want 17 and 1", r.Attempted, r.Failed)
			}
			if r.Metrics["ttfb_gmean_ms"].Value <= 0 {
				t.Errorf("timed: the failing search dropped the timings")
			}
			continue
		}
		// One pass runs the 14 stateless searches in three modes and the
		// three models once; the planted answer fails in every mode.
		if got, want := r.Metrics["verdict_fail_frac"].Value, 3.0/45; got != want {
			t.Errorf("traced: verdict_fail_frac = %v, want %v", got, want)
		}
	}
}

// TestOracleCheck covers every kind of mismatch the oracle reports.
func TestOracleCheck(t *testing.T) {
	o := mustOracle(t)
	pin := o.Workloads[wSweep]["wsq"]
	good := outcome{search: "wsq", executions: pin.Executions, states: pin.States, classes: pin.Classes,
		boundCompleted: *pin.BoundCompleted, cumAtBound2: pin.CumExecutionsBound2}
	if bad := o.check(wSweep, good); len(bad) != 0 {
		t.Fatalf("pinned answer rejected: %v", bad)
	}
	cases := map[string]func(*outcome){
		"executions":      func(o *outcome) { o.executions++ },
		"states":          func(o *outcome) { o.states-- },
		"classes":         func(o *outcome) { o.classes++ },
		"bound 2 count":   func(o *outcome) { o.cumAtBound2 = -1 },
		"bound completed": func(o *outcome) { o.boundCompleted-- },
		"bug":             func(o *outcome) { o.bug = &foundBug{Kind: "deadlock"} },
		"unknown search":  func(o *outcome) { o.search = "nope" },
	}
	for name, mutate := range cases {
		out := good
		mutate(&out)
		if bad := o.check(wSweep, out); len(bad) != 1 {
			t.Errorf("%s: %d mismatches %v, want 1", name, len(bad), bad)
		}
	}
	hunt := outcome{search: "ape.lost-wakeup", bug: &foundBug{Kind: "deadlock", Preemptions: 0}}
	if bad := o.check(wHunt, hunt); len(bad) != 0 {
		t.Errorf("documented bug rejected: %v", bad)
	}
	hunt.bug = nil
	if bad := o.check(wHunt, hunt); len(bad) != 1 {
		t.Errorf("missing bug: %v, want one mismatch", bad)
	}
}

// TestSeedsAgree runs sweep and hunt under two seeds: only the order of
// the searches may differ, never a verdict or a count.
func TestSeedsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweep passes")
	}
	o := mustOracle(t)
	for _, name := range []string{wSweep, wHunt} {
		w, err := buildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]map[string]outcome
		for i, seed := range []int64{1, 2} {
			got[i] = map[string]outcome{}
			for _, s := range w.order(rand.New(rand.NewSource(seed))) {
				out := s.run(plain)
				if bad := o.check(name, out); len(bad) != 0 {
					t.Errorf("seed %d: %v", seed, bad)
				}
				out.dur, out.boundTime = 0, [4]time.Duration{}
				if out.bug != nil {
					b := *out.bug
					out.bug = &b
				}
				got[i][s.name] = out
			}
		}
		for n, a := range got[0] {
			b := got[1][n]
			same := a.executions == b.executions && a.states == b.states && a.classes == b.classes &&
				a.boundCompleted == b.boundCompleted && a.cumAtBound2 == b.cumAtBound2 &&
				(a.bug == nil) == (b.bug == nil) && (a.bug == nil || *a.bug == *b.bug)
			if !same {
				t.Errorf("%s/%s: seed 1 gave %+v, seed 2 gave %+v", name, n, a, b)
			}
		}
	}
}

// TestOracleMatchesDocumentation ties the hunt answers to the variants'
// documented Table 2 rows and the sweep's bound-2 counts to the plain
// executions recorded in BENCH_bpor.json.
func TestOracleMatchesDocumentation(t *testing.T) {
	o := mustOracle(t)
	hunt := o.Workloads[wHunt]
	n := 0
	for _, p := range programs {
		for _, b := range p.bench().Bugs {
			n++
			e := hunt[p.slug+"."+b.ID]
			if e.Bug == nil || e.Bug.Kind != b.Kind || e.Bug.Preemptions != b.Bound {
				t.Errorf("hunt %s.%s: answer %+v, documented %s at %d", p.slug, b.ID, e.Bug, b.Kind, b.Bound)
			}
		}
	}
	for _, b := range txnmgr.Bugs() {
		n++
		e := hunt["txnmgr."+b.ID]
		if e.Bug == nil || e.Bug.Preemptions != b.Bound || b.Bound > 3 {
			t.Errorf("hunt txnmgr.%s: answer %+v, documented bound %d", b.ID, e.Bug, b.Bound)
		}
	}
	if n != len(hunt) {
		t.Errorf("hunt has %d answers for %d variants", len(hunt), n)
	}

	data, err := os.ReadFile("../BENCH_bpor.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name            string `json:"name"`
			Bound           int    `json:"bound"`
			PlainExecutions int    `json:"plain_executions"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range rep.Benchmarks {
		for _, p := range programs {
			if p.bench().Name != b.Name || b.Bound != 2 {
				continue
			}
			checked++
			if got := o.Workloads[wSweep][p.slug].CumExecutionsBound2; got != b.PlainExecutions {
				t.Errorf("sweep %s: bound-2 executions %d, BENCH_bpor.json says %d", p.slug, got, b.PlainExecutions)
			}
		}
	}
	if checked != 4 {
		t.Errorf("cross-checked %d programs against BENCH_bpor.json, want 4", checked)
	}
}
