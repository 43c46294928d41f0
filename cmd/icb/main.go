// Command icb explores a benchmark program with a chosen search strategy
// and reports coverage, statistics, and any bugs found — the model-checker
// front end of the reproduction.
//
// Usage:
//
//	icb -prog wsq -bug steal-unlocked -strategy icb -bound 2
//	icb -prog dryad -bug alert-window -strategy icb -bound 1 -trace
//	icb -prog bluetooth -strategy dfs -execs 10000
//	icb -prog wsq -bug steal-unlocked -progress -events ev.ndjson -json
//	icb -prog wsq -bug steal-unlocked -http :8080 -repro-dir repro/
//	icb -replay repro/bug-001-assertion-failure
//	icb -list
//
// With -http, a live dashboard (per-bound progress bars, schedule-space
// estimates, SSE event stream) is served while the search runs. With
// -repro-dir, every found bug is persisted as a self-contained bundle that
// -replay verifies later: -replay accepts either a literal schedule
// ("t0 t1 t1 t0", requires -prog) or a bundle path (self-describing).
// Replaying a bundle exits 0 when the recorded bug reproduces and 1 when
// it does not.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"icb/internal/baseline"
	"icb/internal/core"
	"icb/internal/exper"
	"icb/internal/obs"
	"icb/internal/obs/coverage"
	"icb/internal/obs/dash"
	"icb/internal/obs/estimate"
	"icb/internal/obs/fleet"
	"icb/internal/obs/health"
	"icb/internal/obs/journal"
	"icb/internal/obs/logx"
	"icb/internal/obs/prof"
	"icb/internal/obs/repro"
	obstrace "icb/internal/obs/trace"
	"icb/internal/progs"
	"icb/internal/sched"
)

// exitInterrupted is the exit status of a run stopped by SIGINT/SIGTERM
// after a graceful flush (128 + SIGINT, the shell convention).
const exitInterrupted = 130

// log carries structured diagnostics to stderr (program output — results,
// progress, reports — keeps its own writers). Configured in run from the
// -log-json / -log-level flags.
var log = slog.Default()

func main() { os.Exit(run()) }

// run is main's body; returning (rather than os.Exit-ing) lets deferred
// cleanups — notably the NDJSON flush — run before the process exits.
func run() int {
	var (
		progName = flag.String("prog", "", "benchmark program: bluetooth, fsmodel, wsq, ape, dryad")
		bugID    = flag.String("bug", "", "seeded bug variant (default: the correct version); see -list")
		strategy = flag.String("strategy", "icb", "search strategy: icb, dfs, db:<N>, idfs, random, pct:<d>")
		bound    = flag.Int("bound", -1, "preemption bound for icb (-1 = run to exhaustion)")
		execs    = flag.Int("execs", 0, "execution budget (0 = unlimited)")
		cache    = flag.Bool("cache", false, "enable the Algorithm 1 work-item table (state caching)")
		bpor     = flag.Bool("bpor", false, "enable bounded partial-order reduction (sleep sets + targeted backtracking) for the icb strategy")
		noRaces  = flag.Bool("noraces", false, "disable the per-execution data-race detector")
		goldi    = flag.Bool("goldilocks", false, "use the Goldilocks lockset race detector")
		first    = flag.Bool("first", true, "stop at the first bug")
		trace    = flag.Bool("trace", false, "replay and print the first bug's schedule")
		minimize = flag.Bool("minimize", false, "shrink the first bug's schedule before reporting")
		replay   = flag.String("replay", "", "skip searching; replay this schedule (e.g. \"t0 t1 t1 t0\") or repro bundle path")
		every    = flag.Bool("everyaccess", false, "scheduling points at every shared access (no sync-only reduction)")
		list     = flag.Bool("list", false, "list benchmarks and bug variants")
		seed     = flag.Int64("seed", 1, "seed for the random strategy")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker engines for the icb strategy (1 = the same search inline, in sequential order)")
		progress = flag.Bool("progress", false, "print live search progress to stderr")
		events   = flag.String("events", "", "write the structured event stream (NDJSON) to this file")
		jsonOut  = flag.Bool("json", false, "print the final result as JSON on stdout (human text goes to stderr)")
		swimlane = flag.Bool("swimlane", false, "replay the first bug and print a thread-per-column diagram")
		httpAddr = flag.String("http", "", "serve the live search dashboard on this address (e.g. :8080)")
		reproDir = flag.String("repro-dir", "", "write a self-contained repro bundle for every found bug under this directory")
		profile  = flag.Bool("profile", false, "attach the search profiler (phase timing, redundancy, time-to-first-bug)")
		profOut  = flag.String("profile-out", "", "write the final profiler snapshot as JSON to this file (implies -profile)")
		covFile  = flag.String("coverage", "", "merge this run's preemption-point coverage atlas into this JSON file")
		covDiff  = flag.String("coverage-diff", "", "skip searching; print what atlas NEW adds over atlas OLD (\"old.json,new.json\")")
		traceDir = flag.String("trace-dir", "", "write per-execution Chrome trace-event JSON (Perfetto) into this directory")
		jrnlDir  = flag.String("journal-dir", "", "durable campaign journal: checkpoints, event segments and the runs.ndjson ledger go under this directory")
		history  = flag.String("history", "", "comma-separated extra journal directories for the dashboard's campaign-history panel")
		resume   = flag.String("resume", "", "resume an interrupted campaign from this journal directory (config comes from its checkpoint)")
		ckEvery  = flag.Duration("checkpoint-every", 0, "periodic checkpoint interval with -journal-dir (default 2s; negative: barrier/final snapshots only)")
		hold     = flag.Bool("hold", false, "with -http: keep serving the dashboard after the search completes, until SIGINT/SIGTERM (fleet workers)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	var lo logx.Options
	lo.Flags(flag.CommandLine)
	flag.Parse()
	log = logx.New("icb", lo)

	if *version {
		fmt.Println("icb", obs.BuildInfo())
		return 0
	}
	if *covDiff != "" {
		return coverageDiff(*covDiff)
	}

	// With -json, stdout carries exactly one JSON document; everything meant
	// for humans moves to stderr.
	human := io.Writer(os.Stdout)
	if *jsonOut {
		human = os.Stderr
	}

	if *list {
		listBenchmarks()
		return 0
	}

	// -resume restores an interrupted campaign: the checkpoint's metadata is
	// the configuration of record (a snapshot's replay schedules are only
	// meaningful against the exact program and flags that produced them), so
	// it overrides any search flags given alongside.
	var resumeCk *journal.Checkpoint
	if *resume != "" {
		ck, err := journal.LoadCheckpoint(*resume)
		if err != nil {
			log.Error("resume failed", "dir", *resume, "err", err)
			return 2
		}
		if ck.Completed() {
			fmt.Fprintf(human, "campaign in %s already ran to completion (run %s: %d executions, %d bugs); nothing to resume\n",
				*resume, ck.RunID, ck.State.Result.Executions, len(ck.State.Result.Bugs))
			if len(ck.State.Result.Bugs) > 0 {
				return 1
			}
			return 0
		}
		resumeCk = ck
		m := ck.Meta
		*progName, *bugID, *strategy = m.Program, m.Bug, m.Strategy
		*bound, *execs, *seed, *workers = m.MaxBound, m.MaxExecutions, m.Seed, m.Workers
		*cache, *noRaces, *goldi = m.StateCache, !m.CheckRaces, m.Goldilocks
		*every, *first, *bpor = m.EveryAccess, m.FirstBug, m.BPOR
		*jrnlDir = *resume
		fmt.Fprintf(human, "resuming campaign %s: run %s stopped at bound %d after %d executions (%d seeds + %d deferred remaining)\n",
			*resume, ck.RunID, ck.State.Bound, ck.State.Result.Executions,
			len(ck.State.SeedQueue), len(ck.State.NextWork))
	}

	// -replay with a path is a repro bundle: it names its own program and
	// bug variant, so -prog/-bug come from the manifest.
	var bundle *repro.Bundle
	if *replay != "" {
		if _, statErr := os.Stat(*replay); statErr == nil {
			var err error
			if bundle, err = repro.Load(*replay); err != nil {
				log.Error("repro bundle load failed", "path", *replay, "err", err)
				return 2
			}
			*progName = bundle.Meta.Program
			*bugID = bundle.Meta.BugVariant
		}
	}

	b := findBenchmark(*progName)
	if b == nil {
		log.Error("unknown program; use -list", "prog", *progName)
		return 2
	}
	prog := b.Correct
	if *bugID != "" {
		bug := b.FindBug(*bugID)
		if bug == nil {
			log.Error("unknown bug variant; use -list", "prog", b.Name, "bug", *bugID)
			return 2
		}
		prog = bug.Program
		fmt.Fprintf(human, "checking %s with seeded bug %q (documented bound %d)\n", b.Name, bug.ID, bug.Bound)
	} else {
		fmt.Fprintf(human, "checking %s (correct version)\n", b.Name)
	}

	if bundle != nil {
		return replayBundle(bundle, prog, human, *trace)
	}
	if *replay != "" {
		schedule, err := sched.ParseSchedule(*replay)
		if err != nil {
			log.Error("bad replay schedule", "err", err)
			return 2
		}
		mode := sched.ModeSyncOnly
		if *every {
			mode = sched.ModeEveryAccess
		}
		out := sched.Run(prog,
			&sched.ReplayController{Prefix: schedule, Tail: sched.FirstEnabled{}},
			sched.Config{RecordTrace: *trace, Mode: mode})
		if *trace {
			for _, line := range out.TraceStrings() {
				fmt.Printf("  %s\n", line)
			}
		}
		fmt.Printf("replay outcome: %s\n", out)
		if out.Status.Buggy() {
			return 1
		}
		return 0
	}

	strat, err := parseStrategy(*strategy, *seed, *workers)
	if err != nil {
		log.Error("bad strategy", "err", err)
		return 2
	}
	opt := core.Options{
		MaxPreemptions: *bound,
		MaxExecutions:  *execs,
		CheckRaces:     !*noRaces,
		UseGoldilocks:  *goldi,
		StopOnFirstBug: *first,
		StateCache:     *cache,
		BPOR:           *bpor,
	}
	if *every {
		opt.Mode = sched.ModeEveryAccess
	}
	// The stop flag is always wired so SIGINT/SIGTERM end any strategy at
	// the next execution boundary instead of killing the process mid-write.
	stop := &atomic.Bool{}
	opt.Stop = stop
	if resumeCk != nil {
		opt.Resume = &resumeCk.State
		if err := core.ValidateResume(&resumeCk.State, opt); err != nil {
			log.Error("resume validation failed", "err", err)
			return 2
		}
	}
	var prf *prof.Profiler
	if *profile || *profOut != "" {
		prf = prof.New(0)
		opt.Profiler = prf
	}

	var cov *coverage.Recorder
	if *covFile != "" || *httpAddr != "" || *jrnlDir != "" {
		// The atlas backs the -coverage store, the dashboard's heatmap panel
		// and the journal's cross-run atlas, so it is attached whenever any
		// of those consumers is on.
		cov = coverage.NewRecorder(*progName)
		opt.Coverage = cov
	}
	var tw *obstrace.DirWriter
	if *traceDir != "" {
		tw = &obstrace.DirWriter{Dir: *traceDir, Label: *progName}
		opt.TraceObserver = tw
	}

	var sinks []obs.Sink
	// The schedule-space estimator backs both the progress line's
	// "% explored, ETA" suffix and the dashboard, so it is attached
	// whenever either consumer is on.
	var est *estimate.Estimator
	if *progress || *httpAddr != "" {
		est = estimate.New()
		sinks = append(sinks, est)
	}
	if *progress {
		p := obs.NewProgress(os.Stderr, 0)
		p.SetEstimator(est)
		sinks = append(sinks, p)
	}
	var nd *obs.NDJSON
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Error("cannot create events file", "path", *events, "err", err)
			return 2
		}
		nd = obs.NewNDJSON(f)
		defer func() {
			if err := nd.Close(); err != nil {
				log.Error("event stream flush failed", "err", err)
			}
			f.Close()
		}()
		sinks = append(sinks, nd)
	}
	// The live counter set backs both the dashboard and the journal's
	// per-checkpoint metric snapshots.
	var met *obs.Metrics
	if *httpAddr != "" || *jrnlDir != "" {
		met = &obs.Metrics{}
		if est != nil {
			met.SetEstimator(est)
		}
		if cov != nil {
			met.SetCoverage(cov)
		}
		if prf != nil {
			met.SetProfile(prf)
		}
		sinks = append(sinks, met)
	}
	// The health probe rides the event stream whenever an HTTP surface
	// exists to serve it.
	var probe *health.Probe
	var dashURL string
	if *httpAddr != "" {
		ds := dash.New(met)
		var jdirs []string
		if *jrnlDir != "" {
			jdirs = append(jdirs, *jrnlDir)
		}
		for _, d := range strings.Split(*history, ",") {
			if d = strings.TrimSpace(d); d != "" && d != *jrnlDir {
				jdirs = append(jdirs, d)
			}
		}
		ds.SetJournalDirs(jdirs)
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
		dashURL = fleet.BaseURL(ln.Addr().String())
		srv := &http.Server{Handler: ds.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Error("dashboard server failed", "err", err)
			}
		}()
		log.Info("dashboard serving", "url", dashURL)
		defer func() {
			// Graceful drain with a deadline: lingering SSE streams must
			// not keep a finished search alive.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	var jw *journal.Writer
	if *jrnlDir != "" {
		metaWorkers := 1
		if *strategy == "icb" {
			metaWorkers = *workers
		}
		jcfg := journal.Config{
			Dir: *jrnlDir,
			Meta: journal.Meta{
				Program: *progName, Bug: *bugID, Strategy: *strategy,
				Workers: metaWorkers, MaxBound: *bound, MaxExecutions: *execs,
				Seed: *seed, StateCache: *cache, CheckRaces: !*noRaces,
				Goldilocks: *goldi, EveryAccess: *every, FirstBug: *first,
				BPOR: *bpor,
			},
			Every:   *ckEvery,
			Metrics: met,
		}
		if resumeCk != nil {
			jcfg.ParentRunID = resumeCk.RunID
		}
		if prf != nil {
			jcfg.Profile = prf
		}
		var err error
		if jw, err = journal.New(jcfg); err != nil {
			log.Error("journal open failed", "dir", *jrnlDir, "err", err)
			return 2
		}
		defer func() {
			if err := jw.Close(); err != nil {
				log.Error("journal close failed", "err", err)
			}
		}()
		opt.Checkpoint = jw
		sinks = append(sinks, jw)
		// Every further record names the run, so fleet-wide log streams
		// attribute lines to workers.
		log = log.With("run", jw.RunID())
		fmt.Fprintf(human, "journal: %s (run %s)\n", *jrnlDir, jw.RunID())
	}
	// A worker that both journals and serves HTTP advertises itself for
	// file-based fleet discovery: icb-campaign serve -journal-dir <dir>
	// finds it without an explicit -peers list.
	if dashURL != "" && *jrnlDir != "" {
		runID := ""
		if jw != nil {
			runID = jw.RunID()
		}
		unadvertise, err := fleet.Advertise(*jrnlDir, runID, dashURL)
		if err != nil {
			log.Warn("fleet advertise failed", "dir", *jrnlDir, "err", err)
		} else {
			defer unadvertise()
			log.Info("advertised to fleet", "dir", *jrnlDir, "url", dashURL)
		}
	}
	var rw *repro.Writer
	if *reproDir != "" {
		rw = repro.NewWriter(*reproDir, prog,
			repro.NewMeta(*progName, *bugID, *strategy, *seed, opt))
		if prf != nil {
			rw.SetProfile(prf)
		}
		sinks = append(sinks, rw)
	}
	opt.Sink = obs.Multi(sinks...)
	if resumeCk != nil && opt.Sink != nil {
		opt.Sink = resumeTag{Sink: opt.Sink, dir: *resume, parent: resumeCk.RunID}
	}

	// First signal: graceful stop — the strategy checkpoints and returns, the
	// journal and event stream flush, and the process exits 130. Second
	// signal: force quit.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var interrupted atomic.Bool
	sigReceived := make(chan struct{})
	go func() {
		s := <-sigc
		interrupted.Store(true)
		stop.Store(true)
		close(sigReceived)
		log.Warn("stopping at the next execution boundary (repeat to force quit)", "signal", s.String())
		<-sigc
		os.Exit(exitInterrupted)
	}()

	if probe != nil {
		probe.MarkStarted()
	}

	res := core.Explore(prog, strat, opt)
	if jw != nil {
		rec := journal.BuildRunRecord(res)
		rec.Interrupted = interrupted.Load()
		if cov != nil {
			runAtlas := cov.Atlas()
			merged, added, err := coverage.MergeFile(filepath.Join(*jrnlDir, journal.AtlasName), runAtlas)
			if err != nil {
				log.Error("journal atlas merge failed", "err", err)
			} else {
				rec.AtlasSites = coverage.Summarize(merged).Sites
				rec.AtlasNewSites = added
			}
		}
		if err := jw.FinishRun(rec); err != nil {
			log.Error("journal run record failed", "err", err)
		}
	}
	if cov != nil && *covFile != "" {
		run := cov.Atlas()
		merged, added, err := coverage.MergeFile(*covFile, run)
		if err != nil {
			log.Error("coverage merge failed", "file", *covFile, "err", err)
			return 2
		}
		rs, ms := coverage.Summarize(run), coverage.Summarize(merged)
		fmt.Fprintf(human, "coverage atlas: this run reached %d sites (%d preemption sites); %s now holds %d sites (+%d new)\n",
			rs.Sites, rs.PSites, *covFile, ms.Sites, added)
	}
	if tw != nil {
		if err := tw.Err(); err != nil {
			log.Error("trace writer failed", "err", err)
		}
		written, skipped := tw.Written()
		fmt.Fprintf(human, "traces: %d written to %s", written, *traceDir)
		if skipped > 0 {
			fmt.Fprintf(human, " (%d further executions skipped by the %d-file cap)", skipped, obstrace.DefaultMaxFiles)
		}
		fmt.Fprintln(human)
	}
	if rw != nil {
		if err := rw.Err(); err != nil {
			log.Error("repro writer failed", "err", err)
		}
		for _, p := range rw.Bundles() {
			fmt.Fprintf(human, "repro bundle: %s\n", p)
		}
	}
	if prf != nil {
		data := prf.Profile()
		if *profOut != "" {
			js, err := json.MarshalIndent(data, "", "  ")
			if err != nil {
				log.Error("profile encoding failed", "err", err)
				return 2
			}
			if err := os.WriteFile(*profOut, append(js, '\n'), 0o644); err != nil {
				log.Error("profile write failed", "path", *profOut, "err", err)
				return 2
			}
			fmt.Fprintf(human, "profile: wrote %s\n", *profOut)
		}
		printProfile(human, data)
	}
	if bug := res.FirstBug(); bug != nil && *minimize {
		min := core.MinimizeSchedule(prog, bug.Schedule, opt)
		fmt.Fprintf(human, "minimized schedule: %d -> %d decisions\n", len(bug.Schedule), len(min))
		bug.Schedule = min
	}
	if *jsonOut {
		doc := jsonResult(res)
		if prf != nil {
			doc["profile"] = prf.Profile()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Error("result encoding failed", "err", err)
			return 2
		}
	} else {
		printResult(res)
	}

	if bug := res.FirstBug(); bug != nil && (*trace || *swimlane) {
		out := sched.Run(prog,
			&sched.ReplayController{Prefix: bug.Schedule, Tail: sched.FirstEnabled{}},
			sched.Config{RecordTrace: true, Mode: opt.Mode})
		if *trace {
			fmt.Fprintln(human, "\nreplaying the bug schedule:")
			for _, line := range out.TraceStrings() {
				fmt.Fprintf(human, "  %s\n", line)
			}
			fmt.Fprintf(human, "replay outcome: %s\n", out)
		}
		if *swimlane {
			fmt.Fprintln(human)
			fmt.Fprint(human, sched.Swimlane(out))
		}
	}
	// -hold keeps a fleet worker's telemetry surface up after its search
	// budget completes, so the aggregator and scrapers read final counters
	// instead of connection-refused. A signal releases it (and is the
	// normal fleet shutdown, so it does not count as an interruption).
	if *hold && *httpAddr != "" {
		log.Info("search complete; holding dashboard until signal (-hold)")
		<-sigReceived
	} else if interrupted.Load() {
		return exitInterrupted
	}
	if len(res.Bugs) > 0 {
		return 1
	}
	return 0
}

// resumeTag names, on the engine's resume event, the journal directory
// and the interrupted run the restored snapshot came from — facts the
// engine does not know.
type resumeTag struct {
	obs.Sink
	dir, parent string
}

func (r resumeTag) Emit(ev obs.Event) {
	if re, ok := ev.(*obs.ResumeEvent); ok {
		tagged := *re
		tagged.Dir, tagged.ParentRunID = r.dir, r.parent
		ev = &tagged
	}
	r.Sink.Emit(ev)
}

// replayBundle feeds a repro bundle's schedule back through the replay
// controller under the recorded search semantics, prints the re-rendered
// swimlane, and verifies the recorded bug reproduces (also diffing the
// swimlane against the bundled rendering). Exit status: 0 when the bug
// reproduces, 1 when it does not.
func replayBundle(b *repro.Bundle, prog sched.Program, human io.Writer, trace bool) int {
	fmt.Fprintf(human, "replaying bundle %s\n", b.Dir)
	fmt.Fprintf(human, "recorded bug: %s: %s (%d preemptions, execution #%d)\n",
		b.Bug.Kind, b.Bug.Message, b.Bug.Preemptions, b.Bug.Execution)
	r := repro.Replay(b, prog)
	if trace {
		for _, line := range r.Outcome.TraceStrings() {
			fmt.Fprintf(human, "  %s\n", line)
		}
	}
	fmt.Fprint(human, r.Swimlane)
	if !r.Reproduced() {
		fmt.Printf("NOT REPRODUCED: replay outcome %s, bugs %d\n", r.Outcome, len(r.Bugs))
		return 1
	}
	fmt.Printf("reproduced: %s\n", r.Match.String())
	if lane, err := os.ReadFile(b.SwimlanePath()); err == nil {
		if string(lane) == r.Swimlane {
			fmt.Println("swimlane matches the bundled rendering")
		} else {
			fmt.Println("WARNING: swimlane differs from the bundled rendering")
			return 1
		}
	}
	return 0
}

// coverageDiff implements -coverage-diff: given "old.json,new.json" it
// prints every site, bound and next-thread choice the new atlas covers that
// the old one does not. Exit status: 0 when new adds nothing, 1 when it
// does (so scripts can gate on "did this campaign advance the frontier"),
// 2 on usage or I/O errors.
func coverageDiff(arg string) int {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok || oldPath == "" || newPath == "" {
		log.Error(`-coverage-diff wants "old.json,new.json"`)
		return 2
	}
	oldA, err := coverage.Load(oldPath)
	if err != nil {
		log.Error("atlas load failed", "path", oldPath, "err", err)
		return 2
	}
	newA, err := coverage.Load(newPath)
	if err != nil {
		log.Error("atlas load failed", "path", newPath, "err", err)
		return 2
	}
	d := coverage.Diff(oldA, newA)
	if len(d.Sites) == 0 {
		fmt.Printf("%s adds no coverage over %s\n", newPath, oldPath)
		return 0
	}
	fmt.Printf("%s adds coverage at %d sites over %s:\n", newPath, len(d.Sites), oldPath)
	for _, s := range d.Sites {
		for _, bc := range s.Bounds {
			fmt.Printf("+ %s %s %q @%s: bound=%d reached=%d preempted=%d choices=%s\n",
				s.Program, s.Kind, s.Loc, s.Thread,
				bc.Bound, bc.Reached, bc.Preempted, strings.Join(bc.Choices, ","))
		}
	}
	return 1
}

// jsonResult shapes a core.Result for -json output: schedules become their
// compact string form ("t0 t1 ...") instead of decision-struct arrays.
func jsonResult(res core.Result) map[string]any {
	bugs := make([]map[string]any, 0, len(res.Bugs))
	for i := range res.Bugs {
		b := &res.Bugs[i]
		bugs = append(bugs, map[string]any{
			"kind":             b.Kind.String(),
			"message":          b.Message,
			"preemptions":      b.Preemptions,
			"context_switches": b.ContextSwitches,
			"steps":            b.Steps,
			"execution":        b.Execution,
			"schedule":         b.Schedule.String(),
			"count":            b.Count,
		})
	}
	bounds := make([]map[string]any, 0, len(res.BoundStats))
	for _, bs := range res.BoundStats {
		bounds = append(bounds, map[string]any{
			"bound":          bs.Bound,
			"executions":     bs.Executions,
			"cum_executions": bs.CumExecutions,
			"states":         bs.States,
			"duration_ms":    float64(bs.Duration.Microseconds()) / 1e3,
		})
	}
	return map[string]any{
		"strategy":          res.Strategy,
		"executions":        res.Executions,
		"states":            res.States,
		"execution_classes": res.ExecutionClasses,
		"max_steps":         res.MaxSteps,
		"max_blocking":      res.MaxBlocking,
		"max_preemptions":   res.MaxPreemptions,
		"bound_completed":   res.BoundCompleted,
		"exhausted":         res.Exhausted,
		"duration_ms":       float64(res.Duration.Microseconds()) / 1e3,
		"cache_hits":        res.CacheHits,
		"cache_misses":      res.CacheMisses,
		"bpor":              res.BPOR,
		"bpor_pruned":       res.BPORPruned,
		"bound_stats":       bounds,
		"bugs":              bugs,
	}
}

func listBenchmarks() {
	for _, b := range exper.Benchmarks() {
		fmt.Printf("%-22s threads=%d bugs:\n", b.Name, b.Threads)
		for _, bug := range b.Bugs {
			fmt.Printf("  -bug %-24s bound=%d kind=%s\n      %s\n", bug.ID, bug.Bound, bug.Kind, bug.Description)
		}
	}
	fmt.Println("\n(the transaction manager is a ZML model; use the zingi command)")
}

func findBenchmark(name string) *progs.Benchmark {
	aliases := map[string]int{
		"bluetooth": 0, "fsmodel": 1, "wsq": 2, "ape": 3, "dryad": 4,
	}
	i, ok := aliases[strings.ToLower(name)]
	if !ok {
		return nil
	}
	return exper.Benchmarks()[i]
}

func parseStrategy(s string, seed int64, workers int) (core.Strategy, error) {
	switch {
	case s == "icb":
		if workers > 1 {
			return core.ParallelICB{Workers: workers}, nil
		}
		return core.ICB{}, nil
	case s == "dfs":
		return baseline.DFS{}, nil
	case s == "idfs":
		return baseline.IDFS{}, nil
	case s == "random":
		return baseline.Random{Seed: seed}, nil
	case s == "pct":
		return baseline.PCT{Depth: 2, Seed: seed}, nil
	case strings.HasPrefix(s, "pct:"):
		d, err := strconv.Atoi(s[4:])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad pct depth %q", s)
		}
		return baseline.PCT{Depth: d, Seed: seed}, nil
	case strings.HasPrefix(s, "db:"):
		n, err := strconv.Atoi(s[3:])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad depth bound %q", s)
		}
		return baseline.DFS{Depth: n}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want icb, dfs, db:<N>, idfs, random, pct:<d>)", s)
}

// printProfile renders a compact human summary of the profiler snapshot:
// the replay/explore wall-clock split, per-bound redundancy, worker
// contention (parallel searches only), and each distinct bug's
// time-to-first-sighting.
func printProfile(w io.Writer, d obs.ProfileData) {
	var replay, explore int64
	for _, p := range d.Phases {
		switch p.Phase {
		case obs.PhaseReplay:
			replay = p.NS
		case obs.PhaseExplore:
			explore = p.NS
		}
	}
	if total := replay + explore; total > 0 {
		fmt.Fprintf(w, "profile: replay %.1f%% / explore %.1f%% of %.1f ms execution time (sampled phases 1-in-%d)\n",
			100*float64(replay)/float64(total), 100*float64(explore)/float64(total),
			float64(total)/1e6, d.SampleEvery)
	}
	for _, b := range d.Bounds {
		fmt.Fprintf(w, "profile: bound %d: %d execs, %d new classes (%.1f%% redundant), %.1f ms\n",
			b.Bound, b.Executions, b.NewClasses, 100*b.RedundantFrac, float64(b.DurationNS)/1e6)
	}
	for _, wk := range d.Workers {
		fmt.Fprintf(w, "profile: worker %d: state-set waits %d (%.2f ms), table waits %d (%.2f ms), barrier %.2f ms, steals %d (%d failed), idle %.2f ms, fetch stalls %d\n",
			wk.Worker, wk.StateLockWaits, float64(wk.StateLockWaitNS)/1e6,
			wk.TableLockWaits, float64(wk.TableLockWaitNS)/1e6,
			float64(wk.BarrierWaitNS)/1e6, wk.Steals, wk.StealFails,
			float64(wk.IdleNS)/1e6, wk.FetchStalls)
	}
	for _, fb := range d.FirstBugs {
		fmt.Fprintf(w, "profile: first sighting of %s %q: execution %d, bound %d, %.2f ms\n",
			fb.Kind, fb.Message, fb.Execution, fb.Bound, float64(fb.TNS)/1e6)
	}
}

func printResult(res core.Result) {
	fmt.Printf("strategy=%s executions=%d states=%d classes=%d exhausted=%v\n",
		res.Strategy, res.Executions, res.States, res.ExecutionClasses, res.Exhausted)
	fmt.Printf("maxK=%d maxB=%d maxPreemptions=%d boundCompleted=%d\n",
		res.MaxSteps, res.MaxBlocking, res.MaxPreemptions, res.BoundCompleted)
	if res.BPOR {
		fmt.Printf("bpor: on, %d work items pruned\n", res.BPORPruned)
	}
	if len(res.Bugs) == 0 {
		if res.BoundCompleted >= 0 {
			fmt.Printf("no bugs: every execution with at most %d preemptions is correct\n", res.BoundCompleted)
		} else {
			fmt.Println("no bugs found")
		}
		return
	}
	for i := range res.Bugs {
		fmt.Printf("BUG: %s\n", res.Bugs[i].String())
		fmt.Printf("     schedule: %s\n", res.Bugs[i].Schedule)
	}
}
