// Command icb-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	icb-bench -exp table2
//	icb-bench -exp fig2 -budget 25000
//	icb-bench -exp all
//	icb-bench -exp fig2 -cpuprofile cpu.out -http :6060
//
// With -http (alias -metrics-addr), the live search dashboard is served
// while the experiments run: the single-page view at /, counters plus
// schedule-space estimates as JSON at /api/snapshot, the event stream as
// SSE at /api/events, and the same snapshot as expvar JSON at /debug/vars
// (key "icb") for scrapers. Everything is registered on a dedicated
// ServeMux — never http.DefaultServeMux, where stray init() registrations
// from imported packages could leak handlers onto the metrics port — and
// the server drains gracefully when the experiments finish.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"icb/internal/exper"
	"icb/internal/obs"
	"icb/internal/obs/coverage"
	"icb/internal/obs/dash"
	"icb/internal/obs/estimate"
	"icb/internal/obs/health"
	"icb/internal/obs/logx"
)

// log carries structured diagnostics to stderr; the experiment tables keep
// writing to stdout. Configured in main from -log-json / -log-level.
var log = slog.Default()

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, table2, fig1, fig2, fig4, fig5, fig6, ablate, parallel, profile, bpor, all")
		budget   = flag.Int("budget", 2000, "execution budget per strategy for growth curves")
		sample   = flag.Int("sample", 0, "curve sampling stride (0 = budget/50)")
		seed     = flag.Int64("seed", 1, "random-walk seed")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker engines for icb searches (1 = the same search inline, in sequential order)")
		parOut   = flag.String("parallel-out", "BENCH_parallel.json", "JSON output path for -exp parallel (empty = stdout table only)")
		profOut  = flag.String("profile-out", "BENCH_profile.json", "JSON output path for -exp profile (empty = stdout table only)")
		bporOut  = flag.String("bpor-out", "BENCH_bpor.json", "JSON output path for -exp bpor (empty = stdout table only)")
		baseline = flag.String("baseline", "", "baseline report to compare -exp profile, -exp bpor or -exp parallel against; regressions exit nonzero")
		force    = flag.Bool("force", false, "allow -exp parallel to overwrite a speedup_valid baseline from a host that cannot measure speedups (GOMAXPROCS=1)")
		tol      = flag.Float64("tolerance", 0, "ratio tolerance for -baseline wall-clock metrics (0 = default 5.0)")
		csvDir   = flag.String("csv", "", "also write plot-ready CSV files into this directory (runs every experiment)")
		progress = flag.Bool("progress", false, "print live search progress to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	var httpAddr string
	flag.StringVar(&httpAddr, "http", "", "serve the live search dashboard on this address (e.g. :6060)")
	flag.StringVar(&httpAddr, "metrics-addr", "", "alias for -http (kept for compatibility)")
	var lo logx.Options
	lo.Flags(flag.CommandLine)
	flag.Parse()
	log = logx.New("icb-bench", lo)

	if *version {
		fmt.Println("icb-bench", obs.BuildInfo())
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	cfg := exper.Config{Budget: *budget, Sample: *sample, Seed: *seed, Workers: *workers}
	var sinks []obs.Sink
	var prg *obs.Progress
	if *progress {
		prg = obs.NewProgress(os.Stderr, 0)
		sinks = append(sinks, prg)
	}
	if httpAddr != "" {
		m := &obs.Metrics{}
		est := estimate.New()
		m.SetEstimator(est)
		cov := coverage.NewRecorder("exper")
		m.SetCoverage(cov)
		cfg.Coverage = cov
		sinks = append(sinks, m, est)
		if prg != nil {
			prg.SetEstimator(est)
		}

		ds := dash.New(m)
		sinks = append(sinks, ds.Sink())
		probe := health.New(0)
		probe.MarkStarted()
		ds.Mount("/healthz", probe.Healthz())
		ds.Mount("/readyz", probe.Readyz())
		sinks = append(sinks, probe)
		// Dedicated mux: the dashboard plus /debug/vars for expvar
		// scrapers, with the snapshot published under the "icb" key.
		// Publish is process-global, but the handler serving it is ours.
		expvar.Publish("icb", expvar.Func(func() any { return m.Snapshot() }))
		mux := http.NewServeMux()
		mux.Handle("/", ds.Handler())
		mux.Handle("/debug/vars", expvar.Handler())

		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			fatal(err)
		}
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Error("dashboard server failed", "err", err)
			}
		}()
		log.Info("dashboard serving", "url", fmt.Sprintf("http://%s/", ln.Addr()), "expvar", "/debug/vars")
		defer func() {
			// Drain open SSE streams with a deadline so a finished bench
			// run exits promptly even with a browser still attached.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	cfg.Sink = obs.Multi(sinks...)

	if *csvDir != "" {
		if err := exper.WriteCSV(*csvDir, cfg); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote CSV files to %s\n", *csvDir)
		return
	}
	if *exp == "parallel" {
		// Run the scaling study directly so -parallel-out, -baseline and
		// -force control the report path, the regression gate and the
		// stale-overwrite guard.
		if err := exper.Parallel(os.Stdout, cfg, *parOut, *baseline, *force); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "profile" {
		// Run the profiler study directly so -profile-out and -baseline
		// control the report path and the regression gate.
		if err := exper.Profile(os.Stdout, cfg, *profOut, *baseline, *tol); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "bpor" {
		// Run the reduction study directly so -bpor-out and -baseline
		// control the report path and the regression gate.
		if err := exper.BPOR(os.Stdout, cfg, *bporOut, *baseline); err != nil {
			fatal(err)
		}
		return
	}
	if err := exper.Run(*exp, os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
