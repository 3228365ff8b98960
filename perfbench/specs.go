package main

import "decvec"

// spec names one metric and its unit. BENCHMARK.json at the repository
// root declares the same lists with their direction and bounds; the tests
// keep the two in step.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload:
// set-up time, and the median pass's wall time, CPU time and peak RSS.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported by every workload.
func perLayer() []spec {
	out := []spec{
		{"workload.trace_ms", "ms"},
		{"workload.insts", "count"},
		{"trace.hash_ms", "ms"},
	}
	for _, c := range []string{"ref", "dva", "byp", "ooo"} {
		out = append(out, spec{c + ".ns_per_inst", "ns"}, spec{c + ".simcycles", "count"})
	}
	out = append(out,
		spec{"dva.ns_per_simcycle", "ns"},
		spec{"dva.small_run_us", "us"},
		spec{"ideal.ms", "ms"},
		spec{"ideal.simcycles", "count"},
		spec{"codec.encode_us", "us"},
		spec{"codec.decode_us", "us"},
		spec{"simcache.put_us", "us"},
		spec{"simcache.get_us", "us"},
		spec{"simcache.getbytes_us", "us"},
	)
	for _, name := range decvec.ExperimentNames() {
		out = append(out, spec{"exp." + name + ".cold_ms", "ms"}, spec{"exp." + name + ".warm_ms", "ms"})
	}
	for _, label := range []string{"cold", "warm"} {
		out = append(out,
			spec{"experiments." + label + ".sims", "count"},
			spec{"simcache." + label + ".hits", "count"},
			spec{"simcache." + label + ".misses", "count"},
			spec{"simcache." + label + ".writes", "count"},
			spec{"simcache." + label + ".corrupt", "count"},
		)
	}
	return append(out,
		spec{"experiments.sweep.sims", "count"},
		spec{"simcache.sweep.hits", "count"},
		spec{"simcache.sweep.misses", "count"},
		spec{"server.handler_ms_p50", "ms"},
		spec{"server.served", "count"},
		spec{"server.overloaded", "count"},
		spec{"server.timeouts", "count"},
		spec{"sweep.plan_us", "us"},
		spec{"sweep.exec_ms_p50", "ms"},
		spec{"sweep.coord_self_ms", "ms"},
		spec{"sweep.http_rtt_ms_p50", "ms"},
		spec{"sweep.http_rtt_ms_p90", "ms"},
		spec{"sweep.retries", "count"},
		spec{"sweep.resharded", "count"},
		spec{"sweep.rounds", "count"},
		spec{"trace_overhead_pct", "%"},
	)
}
