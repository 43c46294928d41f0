package main

import "icb/internal/progs/txnmgr"

// metricDef is one reported metric: its name and unit. BENCHMARK.json
// lists the same names with the same units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"execs_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ttfb_gmean_ms", "ms"},
	{"ttfb_p90_ms", "ms"},
	{"setup_s", "s"},
}

// perLayerFixed are the per-layer metrics of a --trace 1 run that do not
// depend on the program set; perLayer adds one search-time metric per
// program and per bug variant.
var perLayerFixed = []metricDef{
	{"sched.exec_us", "us"},
	{"sched.step_ns", "ns"},
	{"sched.steps_per_exec", "count"},
	{"sched.allocs_per_exec", "count"},
	{"sched.share", "frac"},
	{"race.event_ns", "ns"},
	{"race.allocs_per_exec", "count"},
	{"race.share", "frac"},
	{"hb.fp_event_ns", "ns"},
	{"hb.share", "frac"},
	{"hb.set_add_ns", "ns"},
	{"hb.set_new_ratio", "frac"},
	{"core.bound_ms.b0", "ms"},
	{"core.bound_ms.b1", "ms"},
	{"core.bound_ms.b2", "ms"},
	{"core.bound_ms.b3", "ms"},
	{"core.self_share", "frac"},
	{"core.class_ratio", "frac"},
	{"core.cache.hit_ratio", "frac"},
	{"core.cache.classes_lost", "count"},
	{"core.bpor.saved_frac", "frac"},
	{"core.bpor.time_ratio", "ratio"},
	{"core.parallel.steals", "count"},
	{"core.parallel.steal_fail_ratio", "frac"},
	{"core.parallel.idle_frac", "frac"},
	{"core.parallel.cpu_util", "frac"},
	{"zml.compile_ms", "ms"},
	{"zing.state_us", "us"},
	{"zing.states", "count"},
	{"obs.prof_overhead_frac", "frac"},
	{"obs.trace_overhead_frac", "frac"},
	{"verdict_fail_frac", "frac"},
}

// perLayer returns every per-layer metric: the fixed ones, then
// core.search_ms.<program> and core.ttfb_ms.<variant>.
func perLayer() []metricDef {
	out := append([]metricDef(nil), perLayerFixed...)
	for _, p := range programs {
		out = append(out, metricDef{"core.search_ms." + p.slug, "ms"})
	}
	for _, p := range programs {
		for _, b := range p.bench().Bugs {
			out = append(out, metricDef{"core.ttfb_ms." + p.slug + "." + b.ID, "ms"})
		}
	}
	for _, b := range txnmgr.Bugs() {
		out = append(out, metricDef{"core.ttfb_ms.txnmgr." + b.ID, "ms"})
	}
	return out
}

var (
	endToEndNames, perLayerNames []string
	metricUnits                  = map[string]string{}
)

func init() {
	for _, m := range endToEnd {
		endToEndNames = append(endToEndNames, m.name)
		metricUnits[m.name] = m.unit
	}
	for _, m := range perLayer() {
		perLayerNames = append(perLayerNames, m.name)
		metricUnits[m.name] = m.unit
	}
}
