// Package exper regenerates every table and figure of the paper's
// evaluation (§2.1 and §4): Table 1 (benchmark characteristics), Table 2
// (bugs per preemption bound), Figure 1 (coverage vs context bound for the
// work-stealing queue), Figure 2 (coverage growth under five strategies),
// Figure 4 (coverage vs bound for the completely-searchable programs),
// and Figures 5 and 6 (coverage growth for APE and Dryad against dfs and
// iterative depth bounding).
//
// Absolute numbers differ from the paper's (different substrate and
// hardware); the shapes the experiments check for are the paper's claims:
// every bug sits at its documented bound, coverage saturates within small
// bounds, and ICB dominates dfs/idfs/random on coverage growth.
package exper

import (
	"fmt"
	"io"

	"icb/internal/core"
	"icb/internal/obs"
	"icb/internal/obs/prof"
	"icb/internal/progs"
	"icb/internal/progs/ape"
	"icb/internal/progs/bluetooth"
	"icb/internal/progs/dryad"
	"icb/internal/progs/fsmodel"
	"icb/internal/progs/txnmgr"
	"icb/internal/progs/wsq"
	"icb/internal/sched"
	"icb/internal/zing"
	"icb/internal/zml"
)

// Config scales the experiments. The defaults regenerate every shape in
// seconds; raise Budget for smoother growth curves.
type Config struct {
	// Budget is the execution budget per strategy in growth experiments
	// (default 2000; the paper used 25000 for Figure 2).
	Budget int
	// Sample is the curve sampling stride in executions (default
	// Budget/50).
	Sample int
	// Seed seeds the random-walk strategy.
	Seed int64
	// Workers is the worker count for the bound-synchronized parallel ICB
	// search (0 or 1 = the sequential strategy). Table and figure shapes
	// are unchanged by it: the bound barrier keeps per-bound coverage and
	// bug sets deterministic across worker counts.
	Workers int
	// Sink, when non-nil, receives the structured event stream of every
	// exploration the experiments run (icb-bench attaches live counters
	// and the schedule-space estimator to it).
	Sink obs.Sink
	// Coverage, when non-nil, receives every scheduling decision of every
	// exploration, accumulating the preemption-point coverage atlas across
	// the whole experiment run (icb-bench feeds the dashboard's heatmap
	// with it). Per-row atlases used for the table coverage columns are
	// recorded independently and tee into this one.
	Coverage core.PointRecorder
	// Profiler, when non-nil, attaches the search profiler to every
	// exploration the experiments run (the profile experiment builds its
	// own per-run profilers instead, for isolated measurements).
	Profiler *prof.Profiler
}

func (c *Config) fill() {
	if c.Budget <= 0 {
		c.Budget = 2000
	}
	if c.Sample <= 0 {
		c.Sample = c.Budget / 50
		if c.Sample <= 0 {
			c.Sample = 1
		}
	}
}

// Benchmarks returns the stateless (CHESS-style) benchmark programs in
// Table 1 order.
func Benchmarks() []*progs.Benchmark {
	return []*progs.Benchmark{
		bluetooth.Benchmark(),
		fsmodel.Benchmark(),
		wsq.Benchmark(),
		ape.Benchmark(),
		dryad.Benchmark(),
	}
}

// TxnMgrProgram compiles the transaction-manager ZML model (checked by the
// explicit-state checker, as in the paper).
func TxnMgrProgram() (*zml.Program, error) { return txnmgr.Compile(txnmgr.Correct) }

// Experiments lists the available experiment names.
func Experiments() []string {
	return []string{"table1", "table2", "fig1", "fig2", "fig4", "fig5", "fig6", "ablate"}
}

// Run executes one named experiment and writes its report to w.
func Run(name string, w io.Writer, cfg Config) error {
	switch name {
	case "table1":
		return Table1(w, cfg)
	case "table2":
		return Table2(w, cfg)
	case "fig1":
		return Fig1(w, cfg)
	case "fig2":
		return Fig2(w, cfg)
	case "fig4":
		return Fig4(w, cfg)
	case "fig5":
		return Fig5(w, cfg)
	case "fig6":
		return Fig6(w, cfg)
	case "ablate":
		return Ablate(w, cfg)
	case "parallel":
		// Excluded from "all": a timing study, not a paper artifact.
		// icb-bench calls Parallel directly to control the JSON path.
		return Parallel(w, cfg, "", "", false)
	case "profile":
		// Excluded from "all" for the same reason; icb-bench calls Profile
		// directly to control the JSON and baseline paths.
		return Profile(w, cfg, "", "", 0)
	case "bpor":
		// Excluded from "all" likewise; icb-bench calls BPOR directly to
		// control the JSON and baseline paths.
		return BPOR(w, cfg, "", "")
	case "all":
		for _, n := range Experiments() {
			if err := Run(n, w, cfg); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (have %v)", name, Experiments())
}

// icb returns the configured ICB strategy: the sequential reference
// implementation for Workers <= 1, the bound-synchronized parallel search
// otherwise. Ablate deliberately bypasses this helper — its Theorem 1
// validation counts executions one controller at a time.
func (c Config) icb() core.Strategy {
	if c.Workers > 1 {
		return core.ParallelICB{Workers: c.Workers}
	}
	return core.ICB{}
}

// explore runs a strategy over a stateless program with shared settings,
// attaching the Config's telemetry. A caller-supplied opt.Coverage (the
// per-row atlas of the table experiments) is kept and teed into the
// Config's experiment-wide recorder.
func explore(prog sched.Program, s core.Strategy, opt core.Options, cfg Config) core.Result {
	opt.CheckRaces = true
	opt.Sink = cfg.Sink
	if opt.Profiler == nil {
		opt.Profiler = cfg.Profiler
	}
	if cfg.Coverage != nil {
		if opt.Coverage != nil {
			opt.Coverage = teePoints{opt.Coverage, cfg.Coverage}
		} else {
			opt.Coverage = cfg.Coverage
		}
	}
	return core.Explore(prog, s, opt)
}

// relabelCoverage renames the experiment-wide recorder's program label for
// the rows that follow (the per-row atlases carry their own labels). No-op
// when the Config recorder does not support relabeling.
func relabelCoverage(cfg Config, name string) {
	if p, ok := cfg.Coverage.(interface{ SetProgram(string) }); ok {
		p.SetProgram(name)
	}
}

// teePoints fans one scheduling-decision stream out to two recorders.
type teePoints struct {
	a, b core.PointRecorder
}

// RecordPoint implements core.PointRecorder.
func (t teePoints) RecordPoint(bound int, pi sched.PointInfo) {
	t.a.RecordPoint(bound, pi)
	t.b.RecordPoint(bound, pi)
}

// growthCurves runs the named strategies over one program with an
// execution budget and returns their coverage curves.
type series struct {
	name  string
	curve []core.CoveragePoint
}

func growthCurves(prog sched.Program, cfg Config, strategies []core.Strategy) []series {
	var out []series
	for _, s := range strategies {
		res := explore(prog, s, core.Options{
			MaxPreemptions: -1,
			MaxExecutions:  cfg.Budget,
			SampleEvery:    cfg.Sample,
		}, cfg)
		out = append(out, series{name: res.Strategy, curve: res.Curve})
	}
	return out
}

// renderSeries prints aligned growth curves: one row per sample point.
func renderSeries(w io.Writer, title, xlabel string, ss []series) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-14s", xlabel)
	for _, s := range ss {
		fmt.Fprintf(w, "%14s", s.name)
	}
	fmt.Fprintln(w)
	maxLen := 0
	for _, s := range ss {
		if len(s.curve) > maxLen {
			maxLen = len(s.curve)
		}
	}
	for i := 0; i < maxLen; i++ {
		x := 0
		for _, s := range ss {
			if i < len(s.curve) {
				x = s.curve[i].Executions
				break
			}
		}
		fmt.Fprintf(w, "%-14d", x)
		for _, s := range ss {
			if i < len(s.curve) {
				fmt.Fprintf(w, "%14d", s.curve[i].States)
			} else if len(s.curve) > 0 {
				// Strategy exhausted its space early: carry the final value.
				fmt.Fprintf(w, "%14d", s.curve[len(s.curve)-1].States)
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// finalStates returns the last coverage value of a series.
func finalStates(s series) int {
	if len(s.curve) == 0 {
		return 0
	}
	return s.curve[len(s.curve)-1].States
}

// zingICB runs the explicit-state checker on the transaction manager,
// attaching the Config's event sink.
func zingICB(opt zing.Options, cfg Config) (zing.Result, error) {
	p, err := TxnMgrProgram()
	if err != nil {
		return zing.Result{}, err
	}
	opt.Sink = cfg.Sink
	return zing.CheckICB(p, opt), nil
}
