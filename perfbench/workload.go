package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"icb/internal/core"
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

// Workload names, in the order the notes describe them.
const (
	wSweep    = "sweep"
	wHunt     = "hunt"
	wCampaign = "campaign"
)

var workloadNames = []string{wSweep, wHunt, wCampaign}

// program is one of the paper's stateless benchmarks under the short name
// used in metric names.
type program struct {
	slug  string
	bench func() *progs.Benchmark
}

var programs = []program{
	{"bluetooth", bluetooth.Benchmark},
	{"fsmodel", fsmodel.Benchmark},
	{"wsq", wsq.Benchmark},
	{"ape", ape.Benchmark},
	{"dryad", dryad.Benchmark},
}

// search is one search of a workload: a stateless program explored with
// core.Explore, or a ZML model checked with zing.CheckICB.
type search struct {
	name    string // metric-safe identifier, e.g. "wsq" or "wsq.steal-unlocked"
	prog    sched.Program
	zml     *zml.Program
	opt     core.Options // MaxPreemptions is the search's bound cap
	workers int
}

// workload is a built set of searches: programs constructed and models
// compiled, ready to run.
type workload struct {
	name     string
	searches []*search
	workers  int
	compile  time.Duration // time spent in zml.Compile while building
}

// campaignWorkers is the worker count of the campaign workload: two, or
// fewer on a host with fewer CPUs.
func campaignWorkers() int { return min(2, runtime.NumCPU()) }

// buildWorkload constructs every program and compiles every model of the
// named workload.
func buildWorkload(name string) (*workload, error) {
	w := &workload{name: name, workers: 1}
	switch name {
	case wSweep, wCampaign:
		if name == wCampaign {
			w.workers = campaignWorkers()
		}
		for _, p := range programs {
			bound := 3
			if p.slug == "dryad" {
				// Dryad's bound-2 space is past 200k uncached executions;
				// the cached, reduced campaign reaches it, the sweep stops
				// at bound 1.
				bound = 1
				if name == wCampaign {
					bound = 2
				}
			}
			opt := core.Options{MaxPreemptions: bound, CheckRaces: true}
			if name == wCampaign {
				opt.StateCache = true
				opt.BPOR = true
			}
			w.searches = append(w.searches, &search{name: p.slug, prog: p.bench().Correct, opt: opt, workers: w.workers})
		}
	case wHunt:
		opt := core.Options{MaxPreemptions: 3, CheckRaces: true, StopOnFirstBug: true}
		for _, p := range programs {
			for _, b := range p.bench().Bugs {
				w.searches = append(w.searches, &search{name: p.slug + "." + b.ID, prog: b.Program, opt: opt, workers: 1})
			}
		}
		for _, b := range txnmgr.Bugs() {
			t0 := time.Now()
			zp, err := txnmgr.Compile(b.Variant)
			w.compile += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("compile txnmgr/%s: %w", b.ID, err)
			}
			w.searches = append(w.searches, &search{name: "txnmgr." + b.ID, zml: zp, opt: opt, workers: 1})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// outcome is what one search produced, reduced to what the oracle checks
// and the metrics need.
type outcome struct {
	search         string
	dur            time.Duration
	executions     int // executions (stateless) or work items (zing)
	states         int
	classes        int
	boundCompleted int
	cumAtBound2    int // cumulative executions when bound 2 completed, -1 if it did not
	bug            *foundBug
	cacheHits      int
	cacheMisses    int
	boundTime      [4]time.Duration // wall time per bound 0..3
}

// foundBug is the first bug of a search.
type foundBug struct {
	Kind        string `json:"kind"`
	Preemptions int    `json:"preemptions"`
}

// variant adjusts a search's options for one run: the telemetry attached
// in a traced run, or the reduction switched off for the BPOR comparison.
type variant struct {
	profiler *prof.Profiler
	observer core.OutcomeObserver
	noBPOR   bool
	bound    int // overrides the bound cap when >= 0 (warm-up runs)
}

var plain = variant{bound: -1}

// run executes the search once.
func (s *search) run(v variant) outcome {
	opt := s.opt
	if v.bound >= 0 {
		opt.MaxPreemptions = v.bound
	}
	if s.zml != nil {
		zo := zing.Options{MaxPreemptions: opt.MaxPreemptions, StopOnFirstBug: opt.StopOnFirstBug}
		t0 := time.Now()
		res := zing.CheckICB(s.zml, zo)
		o := outcome{search: s.name, dur: time.Since(t0), executions: res.Items, states: res.States,
			boundCompleted: res.BoundCompleted, cumAtBound2: -1}
		if fb := res.FirstBug(); fb != nil {
			o.bug = &foundBug{Kind: fb.Kind.String(), Preemptions: fb.Preemptions}
		}
		return o
	}
	if v.profiler != nil {
		opt.Profiler = v.profiler
	}
	opt.TraceObserver = v.observer
	if v.noBPOR {
		opt.BPOR = false
	}
	var strat core.Strategy = core.ICB{}
	if s.workers > 1 {
		strat = core.ParallelICB{Workers: s.workers}
	}
	t0 := time.Now()
	res := core.Explore(s.prog, strat, opt)
	o := outcome{search: s.name, dur: time.Since(t0), executions: res.Executions, states: res.States,
		classes: res.ExecutionClasses, boundCompleted: res.BoundCompleted, cumAtBound2: -1,
		cacheHits: res.CacheHits, cacheMisses: res.CacheMisses}
	var inBounds time.Duration
	for _, bs := range res.BoundStats {
		if bs.Bound == 2 {
			o.cumAtBound2 = bs.CumExecutions
		}
		if bs.Bound >= 0 && bs.Bound < len(o.boundTime) {
			o.boundTime[bs.Bound] += bs.Duration
		}
		inBounds += bs.Duration
	}
	if fb := res.FirstBug(); fb != nil {
		o.bug = &foundBug{Kind: fb.Kind.String(), Preemptions: fb.Preemptions}
		// A search stopped by its first bug never completes the bug's
		// bound; the rest of its time belongs to that bound.
		if b := fb.Preemptions; b >= 0 && b < len(o.boundTime) && res.Duration > inBounds {
			o.boundTime[b] += res.Duration - inBounds
		}
	}
	return o
}

// warmUp runs every search once at bound 0, so first-use costs (page
// faults, lazily grown pools) fall into set-up instead of the first pass.
func (w *workload) warmUp() {
	for _, s := range w.searches {
		s.run(variant{bound: 0})
	}
}

// setUp builds the named workload and warms it up, reps times, and
// returns the last build with the wall time of each repetition and the
// time each spent in zml.Compile (hunt only).
func setUp(name string, reps int) (w *workload, setup, compile []float64, err error) {
	for range reps {
		t0 := time.Now()
		w, err = buildWorkload(name)
		if err != nil {
			return nil, nil, nil, err
		}
		w.warmUp()
		setup = append(setup, time.Since(t0).Seconds())
		compile = append(compile, float64(w.compile.Nanoseconds())/1e6)
	}
	return w, setup, compile, nil
}

// order returns the searches of one pass in a seeded random order.
func (w *workload) order(rng *rand.Rand) []*search {
	out := slices.Clone(w.searches)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cpuTime returns the CPU time (user plus system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMeter tracks the peak resident set size of the process over an
// interval, sampling /proc/self/statm every few milliseconds. Resident
// memory falls only when the Go runtime returns pages to the system, so a
// peak outlives the sampling period.
type rssMeter struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

const rssPeriod = 10 * time.Millisecond

// startRSS starts sampling. It returns nil where /proc/self/statm cannot
// be read; peakMB then reports the process's lifetime peak instead.
func startRSS() *rssMeter {
	if residentBytes() < 0 {
		return nil
	}
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.reset()
	go func() {
		defer close(m.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *rssMeter) sample() {
	v := residentBytes()
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new interval at the current resident size.
func (m *rssMeter) reset() {
	if m != nil {
		m.peak.Store(residentBytes())
	}
}

// peakMB returns the peak resident size of the interval in MiB.
func (m *rssMeter) peakMB() float64 {
	if m == nil {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	m.sample()
	return float64(m.peak.Load()) / (1 << 20)
}

// close stops sampling and waits for the sampler to exit.
func (m *rssMeter) close() {
	if m != nil {
		close(m.stop)
		<-m.done
	}
}

// residentBytes reads the resident set size from /proc/self/statm, or
// returns -1.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return -1
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return -1
	}
	return pages * int64(os.Getpagesize())
}
