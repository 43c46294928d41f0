package exper

import (
	"fmt"
	"io"

	"icb/internal/conc"
	"icb/internal/core"
	"icb/internal/progs/dryad"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
)

// AblationResult collects the three design-choice ablations of DESIGN.md:
// preemption bounding vs pure context-switch bounding, the sync-only
// scheduling-point reduction vs scheduling at every access, and the
// Algorithm 1 work-item table vs uncached search.
type AblationResult struct {
	// ICBBugBound / CSBBugBound: bound at which the Dryad Figure 3 bug is
	// found when counting preemptions vs all context switches, with the
	// executions spent.
	ICBBugBound, ICBBugExecs int
	CSBBugBound, CSBBugExecs int

	// SyncOnlyExecs / EveryAccessExecs: executions for a bound-2 search
	// of a data-heavy workload under the §3.1 reduction vs the unreduced
	// model. Both find the same bug set (none).
	SyncOnlyExecs, SyncOnlyStates       int
	EveryAccessExecs, EveryAccessStates int

	// CachedExecs / UncachedExecs: executions to exhaust a reduced
	// work-stealing queue with and without the work-item table; states
	// must match.
	CachedExecs, UncachedExecs, SweepStates int
}

// AblationData measures every ablation. The ablations deliberately stay on
// the sequential core.ICB{} regardless of cfg.Workers: they validate exact
// Theorem 1 execution counts, and the cached-search comparison depends on
// the deterministic table fill order only the sequential drain provides.
func AblationData(cfg Config) (AblationResult, error) {
	var r AblationResult

	// 1. Preemption bounding vs context-switch bounding on Figure 3's bug.
	fig3 := dryad.Program(dryad.AlertWindow, dryad.Params{})
	icbRes := explore(fig3, core.ICB{}, core.Options{MaxPreemptions: 1, StopOnFirstBug: true}, cfg)
	if b := icbRes.FirstBug(); b != nil {
		r.ICBBugBound, r.ICBBugExecs = b.Preemptions, res(icbRes)
	} else {
		return r, fmt.Errorf("ablate: icb missed the Figure 3 bug at bound 1")
	}
	// CSB is iterative like ICB: one search through switch bound 12 is
	// the fair comparison to ICB's iterative execution count.
	csbRes := explore(fig3, core.CSB{}, core.Options{MaxPreemptions: 12, StopOnFirstBug: true}, cfg)
	b := csbRes.FirstBug()
	if b == nil {
		return r, fmt.Errorf("ablate: csb missed the Figure 3 bug through bound 12")
	}
	r.CSBBugBound, r.CSBBugExecs = b.ContextSwitches, csbRes.Executions

	// 2. Sync-only reduction vs every-access scheduling points, on a
	// data-heavy workload (several data accesses per critical section —
	// the shape §3.1 is about). Both explore the same behaviors; the
	// reduction collapses the data accesses into their preceding sync
	// step, the race detector keeping it sound.
	dh := dataHeavy()
	so := explore(dh, core.ICB{}, core.Options{MaxPreemptions: 2, StateCache: true}, cfg)
	ea := core.Explore(dh, core.ICB{}, core.Options{
		MaxPreemptions: 2, StateCache: true, Mode: sched.ModeEveryAccess, CheckRaces: true,
	})
	r.SyncOnlyExecs, r.SyncOnlyStates = so.Executions, so.States
	r.EveryAccessExecs, r.EveryAccessStates = ea.Executions, ea.States

	// 3. Work-item table vs uncached exhaustive search.
	small := wsq.Program(wsq.Correct, wsq.Params{Items: 2, Size: 2})
	cached := explore(small, core.ICB{}, core.Options{MaxPreemptions: -1, StateCache: true}, cfg)
	plain := explore(small, core.ICB{}, core.Options{MaxPreemptions: -1}, cfg)
	if cached.States != plain.States {
		return r, fmt.Errorf("ablate: cache changed coverage: %d vs %d", cached.States, plain.States)
	}
	r.CachedExecs, r.UncachedExecs, r.SweepStates = cached.Executions, plain.Executions, plain.States

	return r, nil
}

func res(r core.Result) int { return r.Executions }

// dataHeavy builds the ablation-2 workload: three workers, each running
// four data updates inside every critical section.
func dataHeavy() sched.Program {
	return func(t *sched.T) {
		m := conc.NewMutex(t, "m")
		x := conc.NewInt(t, "x", 0)
		var ws []*sched.T
		for i := 0; i < 3; i++ {
			ws = append(ws, t.Go("w", func(t *sched.T) {
				m.Lock(t)
				for j := 0; j < 4; j++ {
					x.Update(t, func(v int) int { return v + 1 })
				}
				m.Unlock(t)
			}))
		}
		for _, w := range ws {
			t.Join(w)
		}
		t.Assert(x.Load(t) == 12, "lost update: %d", x.Load(t))
	}
}

// Ablate renders the ablation report.
func Ablate(w io.Writer, cfg Config) error {
	r, err := AblationData(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablations of the paper's design choices.")
	fmt.Fprintln(w, "\n1. Bound preemptions (icb) vs all context switches (csb), Dryad Figure 3 bug:")
	fmt.Fprintf(w, "   icb: found at preemption bound %d after %d executions\n", r.ICBBugBound, r.ICBBugExecs)
	fmt.Fprintf(w, "   csb: found at switch bound %d after %d executions\n", r.CSBBugBound, r.CSBBugExecs)
	fmt.Fprintln(w, "\n2. Sync-only scheduling points + race detector (§3.1) vs every shared access, data-heavy workload, bound 2:")
	fmt.Fprintf(w, "   sync-only:     %8d executions, %8d states\n", r.SyncOnlyExecs, r.SyncOnlyStates)
	fmt.Fprintf(w, "   every-access:  %8d executions, %8d states\n", r.EveryAccessExecs, r.EveryAccessStates)
	fmt.Fprintln(w, "\n3. Algorithm 1 work-item table vs uncached search, reduced WSQ, exhaustive:")
	fmt.Fprintf(w, "   cached:   %8d executions (same %d states)\n", r.CachedExecs, r.SweepStates)
	fmt.Fprintf(w, "   uncached: %8d executions\n", r.UncachedExecs)
	return nil
}
