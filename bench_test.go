package icb_test

// Benchmarks regenerating each table and figure of the paper's evaluation,
// plus micro-benchmarks of the engine's hot paths. The table/figure
// benches run the same code paths as `icb-bench -exp <name>` at reduced
// budgets so that one b.N iteration stays in the hundreds of milliseconds;
// the command regenerates the full-scale versions.

import (
	"fmt"
	"io"
	"testing"

	"icb"
	"icb/internal/core"
	"icb/internal/exper"
	"icb/internal/hb"
	"icb/internal/obs"
	"icb/internal/obs/estimate"
	"icb/internal/progs/txnmgr"
	"icb/internal/progs/wsq"
	"icb/internal/race"
	"icb/internal/sched"
	"icb/internal/zing"
	"icb/internal/zml"
)

// benchCfg keeps one iteration fast; icb-bench runs the full budgets.
var benchCfg = exper.Config{Budget: 300}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Table1Data(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table2Data(exper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	// Reduced work-stealing queue; the full sweep is ~30s (icb-bench).
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	for i := 0; i < b.N; i++ {
		res := core.Explore(prog, core.ICB{}, core.Options{
			MaxPreemptions: -1, CheckRaces: true, StateCache: true,
		})
		if !res.Exhausted {
			b.Fatal("not exhausted")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ss := exper.Fig2Data(benchCfg); len(ss) != 5 {
			b.Fatalf("series = %d", len(ss))
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	// The transaction-manager quarter of Figure 4 (explicit-state); the
	// stateless sweeps are covered by BenchmarkFig1.
	p, err := txnmgr.Compile(txnmgr.Correct)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := zing.CheckICB(p, zing.Options{MaxPreemptions: -1})
		if !res.Exhausted {
			b.Fatal("not exhausted")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ss := exper.Fig5Data(benchCfg); len(ss) != 5 {
			b.Fatalf("series = %d", len(ss))
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ss := exper.Fig6Data(benchCfg); len(ss) != 5 {
			b.Fatalf("series = %d", len(ss))
		}
	}
}

// BenchmarkExecution measures the cost of a single modeled execution
// (goroutine creation, baton passing, event logging).
func BenchmarkExecution(b *testing.B) {
	prog := func(t *icb.T) {
		m := icb.NewMutex(t, "m")
		x := icb.NewInt(t, "x", 0)
		w := t.Go("w", func(t *icb.T) {
			for i := 0; i < 10; i++ {
				m.Lock(t)
				x.Update(t, func(v int) int { return v + 1 })
				m.Unlock(t)
			}
		})
		t.Join(w)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := sched.Run(prog, sched.FirstEnabled{}, sched.Config{})
		if out.Status != sched.StatusTerminated {
			b.Fatal(out)
		}
	}
}

// BenchmarkICBExhaustive measures a complete bounded search of a small
// program (executions per second is the number that matters for scaling).
// The telemetry sub-benchmark attaches what `icb -progress -http` does —
// live counters, the schedule-space estimator and the progress line (to
// io.Discard) — so its gap to plain is the telemetry overhead.
func BenchmarkICBExhaustive(b *testing.B) {
	prog := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	for _, c := range []struct {
		name string
		sink func() obs.Sink
	}{
		{"plain", func() obs.Sink { return nil }},
		{"telemetry", func() obs.Sink {
			met, est, prg := &obs.Metrics{}, estimate.New(), obs.NewProgress(io.Discard, 0)
			met.SetEstimator(est)
			prg.SetEstimator(est)
			return obs.Multi(est, prg, met)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Explore(prog, core.ICB{}, core.Options{MaxPreemptions: 2, CheckRaces: true, Sink: c.sink()})
				if len(res.Bugs) != 0 {
					b.Fatal("unexpected bug")
				}
			}
		})
	}
}

// BenchmarkParallelICB measures the bound-synchronized parallel search at
// increasing worker counts over the same exhaustive bound-2 drain as
// BenchmarkICBExhaustive. Speedup over the workers=1 sub-benchmark is
// bounded by min(workers, CPU count); on a single-CPU host the spread
// between sub-benchmarks is pure coordination overhead.
func BenchmarkParallelICB(b *testing.B) {
	prog := wsq.Program(wsq.StealUnlocked, wsq.Params{Items: 2, Size: 2})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Explore(prog, core.ParallelICB{Workers: w},
					core.Options{MaxPreemptions: 2, CheckRaces: true})
				if len(res.Bugs) == 0 {
					b.Fatal("seeded bug not found")
				}
			}
		})
	}
}

// BenchmarkRaceDetectors compares the vector-clock and Goldilocks
// detectors on the same event stream.
func BenchmarkRaceDetectors(b *testing.B) {
	prog := func(t *icb.T) {
		m := icb.NewMutex(t, "m")
		vars := make([]*icb.Int, 4)
		for i := range vars {
			vars[i] = icb.NewInt(t, "v", 0)
		}
		var ws []*icb.T
		for i := 0; i < 3; i++ {
			ws = append(ws, t.Go("w", func(t *icb.T) {
				for j := 0; j < 8; j++ {
					m.Lock(t)
					vars[j%4].Update(t, func(v int) int { return v + 1 })
					m.Unlock(t)
				}
			}))
		}
		for _, w := range ws {
			t.Join(w)
		}
	}
	b.Run("vectorclock", func(b *testing.B) {
		det := race.NewDetector()
		for i := 0; i < b.N; i++ {
			det.Reset()
			sched.Run(prog, sched.FirstEnabled{}, sched.Config{Observers: []sched.Observer{det}})
		}
	})
	b.Run("goldilocks", func(b *testing.B) {
		det := race.NewGoldilocks()
		for i := 0; i < b.N; i++ {
			det.Reset()
			sched.Run(prog, sched.FirstEnabled{}, sched.Config{Observers: []sched.Observer{det}})
		}
	})
}

// BenchmarkFingerprint measures the per-event cost of the happens-before
// fingerprinter.
func BenchmarkFingerprint(b *testing.B) {
	evs := make([]sched.Event, 256)
	for i := range evs {
		evs[i] = sched.Event{
			TID:   sched.TID(i % 4),
			Index: i / 4,
			Step:  i,
			Op:    sched.Op{Kind: sched.OpAcquire, Var: sched.VarID(i % 8), Class: sched.ClassSync},
		}
	}
	fp := hb.NewFingerprinter(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp.Reset()
		for _, ev := range evs {
			fp.OnEvent(ev)
		}
	}
}

// BenchmarkZMLCompile measures the modeling-language pipeline.
func BenchmarkZMLCompile(b *testing.B) {
	src := txnmgr.Source(txnmgr.Correct)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := zml.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZingStep measures explicit-state stepping (clone + execute +
// serialize), the inner loop of the ZING-style checker.
func BenchmarkZingStep(b *testing.B) {
	p, err := txnmgr.Compile(txnmgr.Correct)
	if err != nil {
		b.Fatal(err)
	}
	s0, fail := p.NewState()
	if fail != nil {
		b.Fatal(fail)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := s0.Clone()
		if fail := p.Step(s, 0, 0); fail != nil {
			b.Fatal(fail)
		}
		_ = s.Key()
	}
}

// BenchmarkExperAll regenerates every experiment end to end at the reduced
// budget, i.e. the whole `icb-bench -exp all` pipeline.
func BenchmarkExperAll(b *testing.B) {
	if testing.Short() {
		b.Skip("runs the full sweeps")
	}
	for i := 0; i < b.N; i++ {
		if err := exper.Run("all", io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}
