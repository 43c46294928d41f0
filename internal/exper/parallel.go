package exper

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"icb/internal/core"
	"icb/internal/obs/prof"
	"icb/internal/progs/wsq"
)

// ParallelRow is one worker-count measurement of the bound-synchronized
// parallel search: wall clock, throughput, and the deterministic outputs
// (states, bugs, bound) that must not move with the worker count.
type ParallelRow struct {
	Workers     int     `json:"workers"`
	Executions  int     `json:"executions"`
	DurationNS  int64   `json:"duration_ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	Speedup     float64 `json:"speedup"`
	// SpeedupValid mirrors the report-level flag onto every row, so
	// tooling that reads rows in isolation (a jq pipeline over .rows[])
	// cannot misread a single-core host's coordination overhead as
	// scaling data: when false, Speedup is 0 and means nothing.
	SpeedupValid   bool `json:"speedup_valid"`
	States         int  `json:"states"`
	Bugs           int  `json:"bugs"`
	BoundCompleted int  `json:"bound_completed"`
	// Steals / StealFails total the work-stealing traffic over all workers:
	// successful thefts of another worker's queued item, and sweeps of every
	// peer deque that came back empty-handed. On the 1-worker row both are 0
	// (one worker runs the search inline and has no peer to steal from).
	Steals     int64 `json:"steals"`
	StealFails int64 `json:"steal_fails"`
	// IdleNS totals the time workers spent parked waiting for work to
	// appear anywhere — the scheduler's load-imbalance signal.
	IdleNS int64 `json:"idle_ns"`
}

// ParallelReport is the scaling study icb-bench writes to
// BENCH_parallel.json: an exhaustive bound-2 search of the buggy
// work-stealing queue at increasing worker counts. Speedup is relative to
// the workers=1 row and is bounded above by min(workers, HostCPUs) — on a
// single-CPU host (or GOMAXPROCS=1) every row time-shares one core and the
// study degenerates to a coordination-overhead measurement, so speedups
// are then not computed at all (SpeedupValid false): an earlier revision
// of this file shipped a checked-in BENCH_parallel.json whose ~0.9x
// "speedups" were exactly that artifact.
type ParallelReport struct {
	Benchmark  string `json:"benchmark"`
	Bug        string `json:"bug"`
	Bound      int    `json:"bound"`
	HostCPUs   int    `json:"hostCPUs"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// SpeedupValid reports that the host could actually run workers in
	// parallel (GOMAXPROCS > 1); when false every row's Speedup is 0 and
	// no speedup claim should be printed or compared.
	SpeedupValid bool          `json:"speedup_valid"`
	Rows         []ParallelRow `json:"rows"`
}

// parallelWorkerCounts are the worker counts the scaling study measures.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// ParallelData measures the scaling study. Every row must agree on the
// deterministic outputs — bug set, distinct states, completed bound — which
// the caching-free exhaustive drain makes exactly comparable; a
// disagreement is reported as an error rather than silently recorded.
func ParallelData(cfg Config) (ParallelReport, error) {
	cfg.fill()
	rep := ParallelReport{
		Benchmark:    "wsq",
		Bug:          "steal-unlocked",
		Bound:        2,
		HostCPUs:     runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SpeedupValid: runtime.GOMAXPROCS(0) > 1,
	}
	var refBugs []string
	for _, w := range parallelWorkerCounts {
		prog := wsq.Program(wsq.StealUnlocked, wsq.Params{})
		// A per-row profiler collects the steal/idle tallies; its sampled
		// phase timings are unused here, so the sampling stride is left at
		// the cheap default.
		pr := prof.New(0)
		res := explore(prog, core.ParallelICB{Workers: w},
			core.Options{MaxPreemptions: rep.Bound, Profiler: pr}, cfg)
		row := ParallelRow{
			Workers:        w,
			Executions:     res.Executions,
			DurationNS:     res.Duration.Nanoseconds(),
			SpeedupValid:   rep.SpeedupValid,
			States:         res.States,
			Bugs:           len(res.Bugs),
			BoundCompleted: res.BoundCompleted,
		}
		for _, pw := range pr.Profile().Workers {
			row.Steals += pw.Steals
			row.StealFails += pw.StealFails
			row.IdleNS += pw.IdleNS
		}
		if res.Duration > 0 {
			row.ExecsPerSec = float64(res.Executions) / res.Duration.Seconds()
		}
		if len(rep.Rows) > 0 {
			base := rep.Rows[0]
			if rep.SpeedupValid && row.DurationNS > 0 {
				row.Speedup = float64(base.DurationNS) / float64(row.DurationNS)
			}
			if row.Executions != base.Executions || row.States != base.States ||
				row.BoundCompleted != base.BoundCompleted {
				return rep, fmt.Errorf(
					"parallel: workers=%d diverged from workers=1: execs %d vs %d, states %d vs %d, bound %d vs %d",
					w, row.Executions, base.Executions, row.States, base.States,
					row.BoundCompleted, base.BoundCompleted)
			}
		} else if rep.SpeedupValid {
			row.Speedup = 1
		}
		bugs := bugKeys(res)
		if refBugs == nil {
			refBugs = bugs
		} else if !reflect.DeepEqual(bugs, refBugs) {
			return rep, fmt.Errorf("parallel: workers=%d found bug set %v, workers=1 found %v", w, bugs, refBugs)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// bugKeys projects a result's bugs onto sorted "kind|message" keys for
// cross-run comparison.
func bugKeys(res core.Result) []string {
	keys := make([]string, 0, len(res.Bugs))
	for i := range res.Bugs {
		keys = append(keys, fmt.Sprintf("%s|%s", res.Bugs[i].Kind, res.Bugs[i].Message))
	}
	sort.Strings(keys)
	return keys
}

// parallelThroughputSlack is the fraction of baseline throughput a row may
// lose before CompareParallel calls it a regression. Wall-clock throughput
// on shared CI runners is noisy, so the gate only fires on large drops.
const parallelThroughputSlack = 0.5

// CompareParallel holds a fresh scaling report against a baseline and
// returns a sorted list of regressions (empty when clean). Throughput is
// gated only when BOTH reports measured real parallelism (SpeedupValid):
// a 1-CPU run's execs/sec is a coordination-overhead number, and comparing
// it against multicore data in either direction is meaningless. The
// deterministic outputs (executions, states, bound, bug count) are gated
// unconditionally whenever both reports measured the same drain.
func CompareParallel(cur, base ParallelReport) []string {
	var regs []string
	if cur.Benchmark != base.Benchmark || cur.Bug != base.Bug || cur.Bound != base.Bound {
		return []string{fmt.Sprintf("baseline measures %s/%s bound %d, current %s/%s bound %d; regenerate the baseline",
			base.Benchmark, base.Bug, base.Bound, cur.Benchmark, cur.Bug, cur.Bound)}
	}
	baseBy := make(map[int]*ParallelRow, len(base.Rows))
	for i := range base.Rows {
		baseBy[base.Rows[i].Workers] = &base.Rows[i]
	}
	gateSpeed := cur.SpeedupValid && base.SpeedupValid
	for i := range cur.Rows {
		cr := &cur.Rows[i]
		br, ok := baseBy[cr.Workers]
		if !ok {
			continue // new worker count: new coverage, not a regression
		}
		if cr.Executions != br.Executions || cr.States != br.States ||
			cr.BoundCompleted != br.BoundCompleted || cr.Bugs != br.Bugs {
			regs = append(regs, fmt.Sprintf(
				"workers=%d: deterministic outputs moved (execs %d -> %d, states %d -> %d, bound %d -> %d, bugs %d -> %d); benchmark changed, regenerate the baseline",
				cr.Workers, br.Executions, cr.Executions, br.States, cr.States,
				br.BoundCompleted, cr.BoundCompleted, br.Bugs, cr.Bugs))
			continue
		}
		if gateSpeed && br.ExecsPerSec > 0 && cr.ExecsPerSec < br.ExecsPerSec*parallelThroughputSlack {
			regs = append(regs, fmt.Sprintf("workers=%d: throughput fell %.0f -> %.0f execs/sec (below %.0f%% of baseline)",
				cr.Workers, br.ExecsPerSec, cr.ExecsPerSec, parallelThroughputSlack*100))
		}
	}
	sort.Strings(regs)
	return regs
}

// readParallelBaseline loads a previously written report; a missing file
// is not an error (first run writes the first baseline).
func readParallelBaseline(path string) (ParallelReport, bool, error) {
	var rep ParallelReport
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rep, false, nil
	}
	if err != nil {
		return rep, false, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, false, fmt.Errorf("parallel baseline %s: %w", path, err)
	}
	return rep, true, nil
}

// Parallel renders the scaling study and, when jsonPath is non-empty,
// writes the report there as indented JSON. Overwriting a baseline whose
// speedups were measured on real parallelism (speedup_valid true) with a
// 1-CPU run that cannot measure them is refused unless force is set —
// otherwise one `icb-bench -exp parallel` on a laptop would silently
// destroy CI's multicore scaling data. When baselinePath is non-empty the
// fresh report is additionally compared against that baseline and an error
// listing every regression is returned (see CompareParallel).
func Parallel(w io.Writer, cfg Config, jsonPath, baselinePath string, force bool) error {
	// Read the comparison baseline before anything is written: jsonPath and
	// baselinePath are the same file in the common "compare against the
	// checked-in report, then refresh it" invocation.
	var base ParallelReport
	var haveBase bool
	if baselinePath != "" {
		var err error
		if base, haveBase, err = readParallelBaseline(baselinePath); err != nil {
			return err
		}
		if !haveBase {
			return fmt.Errorf("parallel baseline: %s does not exist", baselinePath)
		}
	}
	rep, err := ParallelData(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Parallel scaling: %s/%s exhaustive bound-%d drain (%d CPUs, GOMAXPROCS=%d).\n",
		rep.Benchmark, rep.Bug, rep.Bound, rep.HostCPUs, rep.GoMaxProcs)
	fmt.Fprintf(w, "%-8s %12s %12s %14s %9s %8s %6s %8s %8s %10s\n",
		"workers", "executions", "wall (ms)", "execs/sec", "speedup", "states", "bugs", "steals", "failed", "idle (ms)")
	for _, r := range rep.Rows {
		speedup := "-"
		if rep.SpeedupValid {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "%-8d %12d %12.1f %14.0f %9s %8d %6d %8d %8d %10.1f\n",
			r.Workers, r.Executions, float64(r.DurationNS)/1e6, r.ExecsPerSec, speedup,
			r.States, r.Bugs, r.Steals, r.StealFails, float64(r.IdleNS)/1e6)
	}
	if !rep.SpeedupValid {
		fmt.Fprintln(w, "WARNING: GOMAXPROCS=1 — workers time-share one core, so speedup is not measurable;")
		fmt.Fprintln(w, "no speedup is claimed (column shows '-'). Rerun on a multicore host for scaling data.")
	}
	if jsonPath != "" {
		// Staleness gate: never let a host that cannot measure speedups
		// clobber a baseline that did.
		old, haveOld, err := readParallelBaseline(jsonPath)
		if err != nil {
			return err
		}
		if haveOld && old.SpeedupValid && !rep.SpeedupValid && !force {
			return fmt.Errorf(
				"parallel: refusing to overwrite %s (speedup_valid=true, GOMAXPROCS=%d) with a GOMAXPROCS=%d run that cannot measure speedups; rerun on a multicore host or pass -force",
				jsonPath, old.GoMaxProcs, rep.GoMaxProcs)
		}
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	if haveBase {
		regs := CompareParallel(rep, base)
		if len(regs) > 0 {
			fmt.Fprintf(w, "%d regression(s) vs %s:\n", len(regs), baselinePath)
			for _, r := range regs {
				fmt.Fprintf(w, "  %s\n", r)
			}
			return fmt.Errorf("parallel: %d regression(s) vs baseline %s:\n  %s",
				len(regs), baselinePath, strings.Join(regs, "\n  "))
		}
		fmt.Fprintf(w, "no regressions vs %s\n", baselinePath)
	}
	return nil
}
