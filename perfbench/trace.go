package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"icb/internal/hb"
	"icb/internal/obs/prof"
	"icb/internal/race"
	"icb/internal/sched"
)

// The traced run measures each layer from outside, through its public
// API, on the traffic the workload produced:
//
//   - every stateless search runs in several modes, interleaved search by
//     search: plain, with a prof.Profiler attached, with an
//     Options.TraceObserver capturing a seeded sample of executions, and
//     (campaign only) with the cache but without BPOR;
//   - each captured execution is replayed with sched.Run under a
//     sched.ReplayController and no observers (the sched layer), and once
//     more with a recording observer to capture its event stream;
//   - the event streams are fed to race.Detector and hb.Fingerprinter, and
//     the fingerprints those emit to hb.ShardedStateSet.
//
// A layer's share is its estimated time over all of a search's executions
// (mean cost per sampled execution times the execution count) divided by
// the search's wall time times its worker count.

// samplesPerSearch is the size of each search's reservoir of captured
// executions.
const samplesPerSearch = 256

// minLayerTime is the least time spent timing one layer on one search's
// sample; the sample is replayed in rounds until it is reached.
const minLayerTime = 100 * time.Millisecond

type mode int

const (
	modePlain mode = iota
	modeProf
	modeTraced
	modeCacheOnly
)

// captured is one sampled execution as the search saw it.
type captured struct {
	decisions sched.Schedule
	status    sched.Status
	steps     int
}

// sampler is the TraceObserver of the traced mode: a seeded reservoir of
// the search's executions. Parallel workers call it concurrently.
type sampler struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seen  int
	items []captured
}

// ObserveOutcome implements core.OutcomeObserver.
func (s *sampler) ObserveOutcome(_ int, out sched.Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	c := captured{decisions: out.Decisions, status: out.Status, steps: out.Steps}
	if len(s.items) < samplesPerSearch {
		s.items = append(s.items, c)
	} else if j := s.rng.Intn(s.seen); j < samplesPerSearch {
		s.items[j] = c
	}
}

// discard is the TraceObserver of traced passes after the first: trace
// recording stays on (its cost is what obs.trace_overhead_frac measures)
// but nothing is kept.
type discard struct{}

func (discard) ObserveOutcome(int, sched.Outcome) {}

// stopTail ends a replay where the captured decision log ends, as the
// search's own controller did for a cut execution.
type stopTail struct{}

func (stopTail) PickThread(sched.PickInfo) (sched.TID, bool) { return 0, false }
func (stopTail) PickData(sched.TID, int) int                 { return 0 }

// item is one observation of an execution: an event, or a data choice.
type item struct {
	ev     sched.Event
	choice bool
	t      sched.TID
	n, v   int
}

// recorder is a sched.ChoiceObserver that keeps the observation stream.
type recorder struct{ items []item }

func (r *recorder) OnEvent(ev sched.Event) { r.items = append(r.items, item{ev: ev}) }
func (r *recorder) OnChoice(t sched.TID, n, v int) {
	r.items = append(r.items, item{choice: true, t: t, n: n, v: v})
}

// layerCost is one search's measured per-execution layer costs.
type layerCost struct {
	schedNS, steps, schedAllocs float64 // per execution
	raceNS, events, raceAllocs  float64 // per execution
	fpNS, fpItems, fpStates     float64 // per execution
	setAddNS                    float64 // per Add
	setAdds, setNew             int
	diverged                    []string
}

// timeRounds runs f over and over until minLayerTime has passed and
// returns the mean time of one call.
func timeRounds(f func()) float64 {
	var n int
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minLayerTime {
		f()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// allocs returns the heap allocations one call of f makes.
func allocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// measureLayers replays a search's captured sample through sched, race
// and hb.
func measureLayers(s *search, sample []captured) layerCost {
	var lc layerCost
	n := float64(len(sample))
	if len(sample) == 0 {
		return lc
	}
	cfg := sched.Config{Mode: s.opt.Mode, MaxSteps: s.opt.MaxSteps}
	replayAll := func() {
		for _, c := range sample {
			sched.Run(s.prog, &sched.ReplayController{Prefix: c.decisions, Tail: stopTail{}}, cfg)
		}
	}
	// Check every replay against its capture and record its observations.
	streams := make([][]item, len(sample))
	var steps int
	for i, c := range sample {
		rec := &recorder{}
		rcfg := cfg
		rcfg.Observers = []sched.Observer{rec}
		out := sched.Run(s.prog, &sched.ReplayController{Prefix: c.decisions, Tail: stopTail{}}, rcfg)
		if out.Status != c.status || out.Steps != c.steps {
			lc.diverged = append(lc.diverged, fmt.Sprintf("%s: replay of sample %d ended %s after %d steps, captured %s after %d",
				s.name, i, out.Status, out.Steps, c.status, c.steps))
		}
		streams[i] = rec.items
		steps += c.steps
	}
	lc.steps = float64(steps) / n
	lc.schedAllocs = allocs(replayAll) / n
	lc.schedNS = timeRounds(replayAll) / n

	det := race.NewDetector()
	var events int
	for _, st := range streams {
		for _, it := range st {
			if !it.choice {
				events++
			}
		}
	}
	raceAll := func() {
		for _, st := range streams {
			det.Reset()
			for _, it := range st {
				if !it.choice {
					det.OnEvent(it.ev)
				}
			}
		}
	}
	lc.events = float64(events) / n
	lc.raceAllocs = allocs(raceAll) / n
	lc.raceNS = timeRounds(raceAll) / n

	var fps []uint64
	fp := hb.NewFingerprinter(func(v uint64) { fps = append(fps, v) })
	fpAll := func() {
		fps = fps[:0]
		for _, st := range streams {
			fp.Reset()
			for _, it := range st {
				if it.choice {
					fp.OnChoice(it.t, it.n, it.v)
				} else {
					fp.OnEvent(it.ev)
				}
			}
		}
	}
	var fpItems int
	for _, st := range streams {
		fpItems += len(st)
	}
	lc.fpItems = float64(fpItems) / n
	lc.fpNS = timeRounds(fpAll) / n
	fpAll() // leave exactly one round of fingerprints in fps
	lc.fpStates = float64(len(fps)) / n

	if len(fps) > 0 {
		set := hb.NewShardedStateSet()
		for _, v := range fps {
			if set.Add(v) {
				lc.setNew++
			}
		}
		lc.setAdds = len(fps)
		lc.setAddNS = timeRounds(func() {
			set := hb.NewShardedStateSet()
			for _, v := range fps {
				set.Add(v)
			}
		}) / float64(len(fps))
	}
	return lc
}

// modeRun is one search run of the traced measurement.
type modeRun struct {
	out    outcome
	cpu    time.Duration
	steals int64
	fails  int64
	idleNS int64
}

// runTraced is the --trace 1 run.
func runTraced(cfg config) (*result, error) {
	w, _, compileMS, err := setUp(cfg.workload, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	r := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	modes := []mode{modePlain, modeProf, modeTraced}
	if w.name == wCampaign {
		modes = append(modes, modeCacheOnly)
	}
	samplers := map[string]*sampler{}
	for i, s := range w.searches {
		samplers[s.name] = &sampler{rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))}
	}
	runs := map[mode]map[string][]modeRun{}
	for _, m := range modes {
		runs[m] = map[string][]modeRun{}
	}
	var passBound [][4]time.Duration // per pass, plain runs' time per bound
	var zingStates int               // in the last pass
	var verdicts, verdictFails int
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for pass := 0; pass == 0 || time.Since(start)+last/2 < budget; pass++ {
		t0 := time.Now()
		var bounds [4]time.Duration
		zingStates = 0
		for i, s := range w.order(rng) {
			for k := range modes {
				m := modes[(pass+i+k)%len(modes)]
				if s.zml != nil && m != modePlain {
					continue
				}
				v := plain
				var p *prof.Profiler
				switch m {
				case modeProf:
					p = prof.New(0)
					v.profiler = p
				case modeTraced:
					v.observer = discard{}
					if pass == 0 {
						v.observer = samplers[s.name]
					}
				case modeCacheOnly:
					v.noBPOR = true
				}
				c0 := cpuTime()
				out := s.run(v)
				mr := modeRun{out: out, cpu: cpuTime() - c0}
				if p != nil {
					for _, wk := range p.Profile().Workers {
						mr.steals += wk.Steals
						mr.fails += wk.StealFails
						mr.idleNS += wk.IdleNS
					}
				}
				runs[m][s.name] = append(runs[m][s.name], mr)
				verdicts++
				if !r.verdict(cfg.oracle, w.name, out) {
					verdictFails++
				}
				if m == modePlain {
					for b := range bounds {
						bounds[b] += out.boundTime[b]
					}
					if s.zml != nil {
						zingStates += out.states
					}
				}
			}
		}
		passBound = append(passBound, bounds)
		last = time.Since(t0)
	}
	passes := len(passBound)

	// Layer costs on the captured samples.
	costs := map[string]layerCost{}
	for _, s := range w.searches {
		if s.zml != nil {
			continue
		}
		sample := samplers[s.name].items
		lc := measureLayers(s, sample)
		r.Attempted += len(sample)
		r.Failed += len(lc.diverged)
		r.mismatches = append(r.mismatches, lc.diverged...)
		costs[s.name] = lc
	}

	medDur := func(m mode, name string) float64 { // seconds
		var xs []float64
		for _, mr := range runs[m][name] {
			xs = append(xs, mr.out.dur.Seconds())
		}
		return median(xs)
	}
	meanExecs := func(m mode, name string) float64 {
		var sum float64
		for _, mr := range runs[m][name] {
			sum += float64(mr.out.executions)
		}
		return frac(sum, float64(len(runs[m][name])))
	}

	// Layer totals, weighted by each search's execution count.
	var execs, wall, schedT, stepsT, schedA, raceT, eventsT, raceA, fpT, fpItemsT, setT, statesT float64
	var setAdds, setNew int
	for _, s := range w.searches {
		lc, ok := costs[s.name]
		if !ok {
			continue
		}
		e := meanExecs(modePlain, s.name)
		sw := medDur(modePlain, s.name) * float64(s.workers)
		fmt.Fprintf(os.Stderr, "  %-28s execs %8.0f  steps/exec %6.1f  events/exec %6.1f  share sched %.3f race %.3f hb %.3f\n",
			s.name, e, lc.steps, lc.events, frac(e*lc.schedNS, sw*1e9), frac(e*lc.raceNS, sw*1e9),
			frac(e*(lc.fpNS+lc.fpStates*lc.setAddNS), sw*1e9))
		execs += e
		wall += sw
		schedT += e * lc.schedNS
		stepsT += e * lc.steps
		schedA += e * lc.schedAllocs
		raceT += e * lc.raceNS
		eventsT += e * lc.events
		raceA += e * lc.raceAllocs
		fpT += e * lc.fpNS
		fpItemsT += e * lc.fpItems
		setT += e * lc.fpStates * lc.setAddNS
		statesT += e * lc.fpStates
		setAdds += lc.setAdds
		setNew += lc.setNew
	}
	wallNS := wall * 1e9
	r.set("sched.exec_us", frac(schedT, execs)/1e3)
	r.set("sched.step_ns", frac(schedT, stepsT))
	r.set("sched.steps_per_exec", frac(stepsT, execs))
	r.set("sched.allocs_per_exec", frac(schedA, execs))
	r.set("sched.share", frac(schedT, wallNS))
	r.set("race.event_ns", frac(raceT, eventsT))
	r.set("race.allocs_per_exec", frac(raceA, execs))
	r.set("race.share", frac(raceT, wallNS))
	r.set("hb.fp_event_ns", frac(fpT, fpItemsT))
	r.set("hb.share", frac(fpT+setT, wallNS))
	r.set("hb.set_add_ns", frac(setT, statesT))
	r.set("hb.set_new_ratio", frac(float64(setNew), float64(setAdds)))
	r.set("core.self_share", 1-frac(schedT+raceT+fpT+setT, wallNS))

	for b := range 4 {
		var xs []float64
		for _, pb := range passBound {
			xs = append(xs, float64(pb[b].Nanoseconds())/1e6)
		}
		r.set(fmt.Sprintf("core.bound_ms.b%d", b), median(xs))
	}
	perSearch := "core.search_ms."
	if w.name == wHunt {
		perSearch = "core.ttfb_ms."
	}
	var classes, allExecs, hits, lookups float64
	var profSum, plainSum, tracedSum, cacheOnlySum, bporExecs, cacheOnlyExecs float64
	var cpu, busy, idle, profBusy float64
	var steals, fails int64
	for _, s := range w.searches {
		r.set(perSearch+s.name, medDur(modePlain, s.name)*1e3)
		if s.zml != nil {
			continue
		}
		for _, mr := range runs[modePlain][s.name] {
			classes += float64(mr.out.classes)
			allExecs += float64(mr.out.executions)
			hits += float64(mr.out.cacheHits)
			lookups += float64(mr.out.cacheHits + mr.out.cacheMisses)
			cpu += mr.cpu.Seconds()
			busy += mr.out.dur.Seconds() * float64(s.workers)
		}
		for _, mr := range runs[modeProf][s.name] {
			steals += mr.steals
			fails += mr.fails
			idle += float64(mr.idleNS) / 1e9
			profBusy += mr.out.dur.Seconds() * float64(s.workers)
		}
		plainSum += medDur(modePlain, s.name)
		profSum += medDur(modeProf, s.name)
		tracedSum += medDur(modeTraced, s.name)
		if w.name == wCampaign {
			cacheOnlySum += medDur(modeCacheOnly, s.name)
			bporExecs += meanExecs(modePlain, s.name)
			cacheOnlyExecs += meanExecs(modeCacheOnly, s.name)
		}
	}
	r.set("core.class_ratio", frac(classes, allExecs))
	r.set("obs.prof_overhead_frac", frac(profSum, plainSum)-1)
	r.set("obs.trace_overhead_frac", frac(tracedSum, plainSum)-1)
	if lookups > 0 {
		r.set("core.cache.hit_ratio", hits/lookups)
		r.set("core.cache.classes_lost", classesLost(cfg.oracle, w, runs[modePlain]))
	}
	if w.name == wCampaign {
		r.set("core.bpor.saved_frac", 1-frac(bporExecs, cacheOnlyExecs))
		r.set("core.bpor.time_ratio", frac(plainSum, cacheOnlySum))
	}
	if w.workers > 1 {
		r.set("core.parallel.steals", frac(float64(steals), float64(passes)))
		r.set("core.parallel.steal_fail_ratio", frac(float64(fails), float64(steals+fails)))
		r.set("core.parallel.idle_frac", frac(idle, profBusy))
		r.set("core.parallel.cpu_util", frac(cpu, busy))
	}
	if w.name == wHunt {
		r.set("zml.compile_ms", median(compileMS))
		var dur, states float64
		for _, s := range w.searches {
			if s.zml == nil {
				continue
			}
			for _, mr := range runs[modePlain][s.name] {
				dur += mr.out.dur.Seconds()
				states += float64(mr.out.states)
			}
		}
		r.set("zing.state_us", frac(dur, states)*1e6)
		r.set("zing.states", float64(zingStates))
	}
	r.set("verdict_fail_frac", frac(float64(verdictFails), float64(verdicts)))
	fmt.Fprintf(os.Stderr, "%s traced: %d passes, %d verdicts, %d samples replayed\n",
		w.name, passes, verdicts, r.Attempted-verdicts)
	r.finish(perLayerNames)
	return r, nil
}

// classesLost compares the cached search's execution classes with the
// uncached sweep's pinned classes on every program the two search to the
// same bound, and returns the median over passes of the total shortfall.
func classesLost(o *oracle, w *workload, plainRuns map[string][]modeRun) float64 {
	var perPass []float64
	for _, s := range w.searches {
		pin, ok := o.Workloads[wSweep][s.name]
		if !ok || pin.BoundCompleted == nil || *pin.BoundCompleted != s.opt.MaxPreemptions || pin.Classes == 0 {
			continue
		}
		for i, mr := range plainRuns[s.name] {
			if i == len(perPass) {
				perPass = append(perPass, 0)
			}
			perPass[i] += float64(pin.Classes - mr.out.classes)
			if i == 0 {
				fmt.Fprintf(os.Stderr, "  %s bound %d: cached classes %d, uncached %d\n",
					s.name, s.opt.MaxPreemptions, mr.out.classes, pin.Classes)
			}
		}
	}
	return median(perPass)
}
