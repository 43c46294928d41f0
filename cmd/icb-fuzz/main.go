// Command icb-fuzz runs the differential fuzzing harness: it generates
// random small modeled programs, brute-forces their complete schedule
// space as ground truth, and cross-checks every search strategy (ICB,
// DFS, CSB, parallel ICB, cache on/off, replay, minimization, both race
// detectors) against it. Any violated property is shrunk to a minimal
// program and persisted as a repro artifact.
//
// Usage:
//
//	icb-fuzz -seed 1 -n 500            # fixed-size deterministic campaign
//	icb-fuzz -seed 1 -duration 55s     # time-boxed campaign (CI smoke)
//	icb-fuzz -duration 10m -out art/   # nightly: time-derived seed, artifacts
//	icb-fuzz -n 200 -events fuzz.ndjson -profile
//
// With -events, campaign progress (programs checked, oracle exec rate,
// skip counts, discrepancies) streams to the same NDJSON event format the
// search binaries write; with -profile, a search profiler aggregates every
// strategy exploration of the campaign and its final snapshot joins that
// stream.
//
// The process exits 1 when any discrepancy was found, 0 on a clean run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"icb/internal/fuzz"
	"icb/internal/obs"
	"icb/internal/obs/dash"
	"icb/internal/obs/health"
	"icb/internal/obs/journal"
	"icb/internal/obs/logx"
	"icb/internal/obs/prof"
)

// log carries structured diagnostics to stderr; campaign summaries and
// discrepancy reports remain program output. Configured in run from
// -log-json / -log-level.
var log = slog.Default()

// exitInterrupted is the exit status of a campaign stopped by
// SIGINT/SIGTERM after a graceful flush (128 + SIGINT).
const exitInterrupted = 130

func main() { os.Exit(run()) }

// run is main's body; returning (rather than os.Exit-ing) lets deferred
// cleanups — notably the NDJSON flush — run before the process exits.
func run() int {
	var (
		seed     = flag.Int64("seed", 0, "first generator seed; 0 derives one from the clock (printed for reruns)")
		n        = flag.Int("n", 500, "number of programs to check (ignored with -duration)")
		duration = flag.Duration("duration", 0, "run until this much wall time has passed instead of counting to -n")
		out      = flag.String("out", "", "directory for discrepancy artifacts (specs, reports, repro bundles)")
		maxExecs = flag.Int("oracle-max-execs", 0, "per-program oracle execution cap (default 6000); bigger programs are skipped")
		quiet    = flag.Bool("q", false, "suppress progress output (discrepancies still print)")
		events   = flag.String("events", "", "write the structured campaign event stream (NDJSON) to this file")
		profile  = flag.Bool("profile", false, "attach the search profiler across all strategy runs; the final snapshot joins the event stream and prints at exit")
		jrnlDir  = flag.String("journal-dir", "", "append this campaign's run record (and event segment) to the journal under this directory")
		httpAddr = flag.String("http", "", "serve the live campaign dashboard (and /metrics, /healthz, /readyz) on this address")
	)
	var lo logx.Options
	lo.Flags(flag.CommandLine)
	flag.Parse()
	log = logx.New("icb-fuzz", lo)
	if flag.NArg() > 0 {
		log.Error("unexpected arguments", "args", fmt.Sprint(flag.Args()))
		return 2
	}

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	cfg := fuzz.CampaignConfig{
		Seed:     *seed,
		N:        *n,
		Duration: *duration,
		OutDir:   *out,
		Limits:   fuzz.Limits{MaxExecutions: *maxExecs},
		Log:      os.Stderr,
	}
	if *quiet {
		cfg.Log = nil
	}
	var prf *prof.Profiler
	if *profile {
		prf = prof.New(0)
		cfg.Limits.Profiler = prf
	}
	var sinks []obs.Sink
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Error("cannot create events file", "path", *events, "err", err)
			return 2
		}
		nd := obs.NewNDJSON(f)
		defer func() {
			if err := nd.Close(); err != nil {
				log.Error("event stream flush failed", "err", err)
			}
			f.Close()
		}()
		sinks = append(sinks, nd)
	}
	var probe *health.Probe
	if *httpAddr != "" {
		// The fuzzer has no engine-side Metrics; a bridge sink mirrors the
		// periodic campaign progress into one so /api/snapshot and /metrics
		// read live counters (oracle executions; discrepancies as bugs).
		met := &obs.Metrics{}
		sinks = append(sinks, campaignMetrics{met: met})
		ds := dash.New(met)
		sinks = append(sinks, ds.Sink())
		probe = health.New(0)
		probe.AddReadyCheck(health.CheckWritable(*jrnlDir))
		ds.Mount("/healthz", probe.Healthz())
		ds.Mount("/readyz", probe.Readyz())
		sinks = append(sinks, probe)
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Error("dashboard listen failed", "addr", *httpAddr, "err", err)
			return 2
		}
		srv := &http.Server{Handler: ds.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Error("dashboard server failed", "err", err)
			}
		}()
		log.Info("dashboard serving", "url", fmt.Sprintf("http://%s/", ln.Addr()))
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	var jw *journal.Writer
	if *jrnlDir != "" {
		var err error
		jw, err = journal.New(journal.Config{
			Dir:   *jrnlDir,
			Meta:  journal.Meta{Program: "fuzz", Strategy: "fuzz", Workers: 1, MaxBound: -1, Seed: *seed},
			Every: -1, // no search state to checkpoint; ledger + segment only
		})
		if err != nil {
			log.Error("journal open failed", "dir", *jrnlDir, "err", err)
			return 2
		}
		defer func() {
			if err := jw.Close(); err != nil {
				log.Error("journal close failed", "err", err)
			}
		}()
		log = log.With("run", jw.RunID())
		sinks = append(sinks, jw)
	}
	if len(sinks) > 0 {
		cfg.Sink = obs.Multi(sinks...)
	}

	// First signal: graceful stop at the next program boundary — stats,
	// event stream and the journal ledger still flush; exit 130. Second
	// signal: force quit.
	stop := &atomic.Bool{}
	cfg.Stop = stop
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var interrupted atomic.Bool
	go func() {
		s := <-sigc
		interrupted.Store(true)
		stop.Store(true)
		log.Warn("finishing the current program and flushing (repeat to force quit)", "signal", s.String())
		<-sigc
		os.Exit(exitInterrupted)
	}()

	if *duration > 0 {
		log.Info("campaign starting", "seed", *seed, "duration", duration.String())
	} else {
		log.Info("campaign starting", "seed", *seed, "n", *n)
	}
	if probe != nil {
		probe.MarkStarted()
	}

	stats, err := fuzz.Campaign(cfg)
	if err != nil {
		log.Error("campaign failed", "err", err)
		return 1
	}
	fmt.Print(stats.Summary())
	if jw != nil {
		// Fuzz campaigns join the same cross-run ledger the search binaries
		// use: executions are the oracle's, and discrepancies play the bug
		// role so icb-campaign diff flags a newly discrepant strategy.
		rec := &obs.RunRecord{
			DurationNS:     stats.Duration.Nanoseconds(),
			Executions:     stats.Executions,
			Interrupted:    interrupted.Load(),
			BoundCompleted: -1,
		}
		for _, d := range stats.Discrepancies {
			rec.Bugs = append(rec.Bugs, obs.RunBug{Kind: d.Property, Message: d.Detail})
		}
		if err := jw.FinishRun(rec); err != nil {
			log.Error("journal run record failed", "err", err)
		}
	}
	if prf != nil {
		d := prf.Profile()
		var total int64
		for _, p := range d.Phases {
			if p.Phase == obs.PhaseReplay || p.Phase == obs.PhaseExplore {
				total += p.NS
			}
		}
		fmt.Printf("profiler: %.1f ms of strategy execution time across the campaign (sampled phases 1-in-%d)\n",
			float64(total)/1e6, d.SampleEvery)
	}
	if !stats.Clean() {
		log.Error("discrepancies found", "count", len(stats.Discrepancies), "seed", *seed)
		if *out != "" {
			log.Info("artifacts written", "dir", *out)
		}
		return 1
	}
	if interrupted.Load() {
		return exitInterrupted
	}
	return 0
}

// campaignMetrics bridges the periodic CampaignEvents into an
// obs.Metrics so the dashboard and /metrics track a fuzz campaign: the
// oracle's enumerated executions play the execution counter, strategy
// discrepancies play the bug counter.
type campaignMetrics struct {
	met *obs.Metrics
}

// Emit implements obs.Sink.
func (c campaignMetrics) Emit(e obs.Event) {
	if ev, ok := e.(*obs.CampaignEvent); ok {
		c.met.Executions.Store(ev.Executions)
		c.met.Bugs.Store(int64(ev.Discrepancies))
	}
}
