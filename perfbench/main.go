// Command perfbench is the repository benchmark: closed loops of
// back-to-back ICB searches through the public entry points core.Explore
// and zing.CheckICB, every verdict checked against a known answer.
//
//	perfbench --workload sweep|hunt|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 it times whole passes over the workload's searches and
// reports the end-to-end metrics; with --trace 1 it runs the same searches
// with telemetry attached, replays a seeded sample of their executions
// through each layer's public API, and reports the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// A human-readable summary goes to standard error. NOTES.md explains the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int
	oracle    *oracle
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output document.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// mismatches describes every failed verdict or replay, for the summary.
	mismatches []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric under its registered unit.
func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.Metrics[name] = metric{Value: finite(v), Unit: unit}
}

// verdict counts one checked search, recording any mismatch.
func (r *result) verdict(o *oracle, workload string, out outcome) bool {
	r.Attempted++
	bad := o.check(workload, out)
	if len(bad) > 0 {
		r.Failed++
		r.mismatches = append(r.mismatches, bad...)
	}
	return len(bad) == 0
}

// finish fills in every registered metric of the run's kind that the
// workload does not exercise with 0, and sets Correct.
func (r *result) finish(names []string) {
	for _, n := range names {
		if _, ok := r.Metrics[n]; !ok {
			r.set(n, 0)
		}
	}
	r.Correct = r.Failed == 0
}

// runTimed is the --trace 0 run: set-up repeated, then whole passes over
// the workload's searches, each pass in a seeded order, until the time
// budget is spent.
func runTimed(cfg config) (*result, error) {
	w, setups, _, err := setUp(cfg.workload, cfg.setupReps)
	if err != nil {
		return nil, err
	}
	r := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var passS, cpuS, rates, rss, pooled []float64
	perSearch := map[string][]float64{}
	meter := startRSS()
	defer meter.close()
	start := time.Now()
	var last time.Duration
	for len(passS) == 0 || time.Since(start)+last/2 < budget {
		meter.reset()
		c0, t0 := cpuTime(), time.Now()
		execs := 0
		for _, s := range w.order(rng) {
			out := s.run(plain)
			if s.zml == nil {
				execs += out.executions
			}
			ms := float64(out.dur.Nanoseconds()) / 1e6
			perSearch[s.name] = append(perSearch[s.name], ms)
			pooled = append(pooled, ms)
			r.verdict(cfg.oracle, w.name, out)
		}
		last = time.Since(t0)
		passS = append(passS, last.Seconds())
		cpuS = append(cpuS, (cpuTime() - c0).Seconds())
		rates = append(rates, float64(execs)/last.Seconds())
		rss = append(rss, meter.peakMB())
	}
	var medians []float64
	for _, s := range w.searches {
		medians = append(medians, median(perSearch[s.name]))
	}
	r.set("pass_s", median(passS))
	r.set("execs_per_s", median(rates))
	r.set("cpu_s", median(cpuS))
	// A pass's peak depends on where the collector's cycles fall against
	// the largest search's live heap; the mean over passes is steadier
	// than the median or the maximum.
	r.set("peak_rss_mb", mean(rss))
	r.set("ttfb_gmean_ms", gmean(medians))
	r.set("ttfb_p90_ms", quantile(pooled, 0.9))
	r.set("setup_s", median(setups))
	fmt.Fprintf(os.Stderr, "%s: %d passes, %d searches timed (%d per pass), %d set-ups; pass times (s): %.3f\n",
		w.name, len(passS), len(pooled), len(w.searches), len(setups), passS)
	r.finish(endToEndNames)
	return r, nil
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep, hunt or campaign")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the order of searches (and the traced sample)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "time budget of the measured passes")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the timed one")
	flag.Parse()
	cfg.setupReps = setupReps
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.seconds < 0 {
		fatalf("--seconds must not be negative")
	}
	o, err := loadOracle()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.oracle = o
	run := runTimed
	if cfg.trace {
		run = runTraced
	}
	r, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printSummary(r)
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// printSummary writes every metric and every mismatch to standard error.
func printSummary(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH", m)
	}
	fmt.Fprintf(os.Stderr, "verdicts: %d attempted, %d failed\n", r.Attempted, r.Failed)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// finite replaces a NaN or infinite value (a ratio over an empty sample)
// with 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
