package main

// The metric table: every number the benchmark reports, with its unit and
// direction. BENCHMARK.json at the repository root lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatchesTable keeps the
// two in step.

// metric describes one reported metric.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end metrics only) is the share of the parent's median
	// by which the metric may worsen before a change counts as a
	// regression.
	Bound float64

	// The fields below describe per-layer metrics only; README.md maps
	// each to the end-to-end metric and workloads it should move.

	// Kind says how the value is derived; Src names its source: obs.Default
	// series for the counter kinds (numerator first for kRatio), the span
	// name for kSpan.
	Kind kind
	Src  []string
	// Q is the quantile of a kHistQuantile metric.
	Q float64
	// Det marks a metric that repeats exactly for a fixed seed and pass
	// count (the smoke test compares two same-seed runs on these).
	Det bool
}

// kind is how a per-layer metric is derived.
type kind int

const (
	// kSpan: busy milliseconds of the span Src[0] per timed request;
	// kSetupSpan: the same per set-up.
	kSpan kind = iota
	kSetupSpan
	// kCounter: delta of the counter Src[0] per timed request.
	kCounter
	// kRatio: 100 × Δ Src[0] ÷ Σ Δ Src[1:].
	kRatio
	// kHistMean: mean of the histogram Src[0] delta.
	kHistMean
	// kHistQuantile: the Q quantile (bucket upper bound) of the histogram
	// Src[0] delta.
	kHistQuantile
	// kGauge: the largest value of the gauge Src[0] sampled during the
	// timed phase (sampled by the workload that drives it).
	kGauge
	// kCustom: computed by the benchmark itself (see layerValues).
	kCustom
)

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them. The bounds are the widest allowed: on the
// shared 2-CPU virtual machine the benchmark was tuned on, interference
// from other tenants moves whole runs by 10-30% (README.md, "Stability").
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "answers_per_s", Unit: "answers/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	exactWL    = "exact-kernels"
	estimateWL = "estimate-programs"
	designWL   = "design-sweep"
	distWL     = "dist-sweep"
	serveWL    = "serve-mixed"
	allWL      = "all"
)

// perLayer are the metrics of single layers, from the traced run. Times
// come from the benchmark's own spans around each layer call; counts from
// obs.Default deltas taken around the timed phase. Timed-phase values are
// per request, so runs of different lengths compare.
var perLayer = []metric{
	// Front end, timed during set-up.
	{Name: "fparse.parse_ms", Unit: "ms/setup", Better: "lower", Kind: kSetupSpan, Src: []string{"fparse.parse"}},
	{Name: "inline.flatten_ms", Unit: "ms/setup", Better: "lower", Kind: kSetupSpan, Src: []string{"inline.flatten"}},
	{Name: "normalize.normalize_ms", Unit: "ms/setup", Better: "lower", Kind: kSetupSpan, Src: []string{"normalize.normalize"}},
	{Name: "layout.assign_ms", Unit: "ms/setup", Better: "lower", Kind: kSetupSpan, Src: []string{"layout.assign"}},
	{Name: "normalize.refs", Unit: "refs/setup", Better: "lower", Kind: kCustom, Det: true},

	// Reuse-vector generation.
	{Name: "reuse.generate_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"reuse.generate"}},
	{Name: "reuse.vectors", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"reuse_vectors_generated_total"}},

	// Solo solvers.
	{Name: "cme.new_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.new"}},
	{Name: "cme.find_misses_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.find_misses"}},
	{Name: "cme.estimate_misses_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.estimate_misses"}},
	{Name: "cme.points_classified", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_points_classified_total"}, Det: true},
	{Name: "cme.tiles", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_tiles_solved_total"}, Det: true},
	{Name: "cme.walks", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_walks_total"}},
	{Name: "cme.walk_steps", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_walk_steps_total"}},
	{Name: "cme.memo_disabled", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_walk_memo_disabled_total"}},
	{Name: "sampling.draws", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"sampling_draws_total"}, Det: true},
	{Name: "sampling.early_stops", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"sampling_early_stops_total"}, Det: true},
	{Name: "sampling.fallback_plans", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"sampling_fallback_plans_total"}, Det: true},
	{Name: "cme.symbolic_pct", Unit: "%", Better: "higher", Kind: kRatio, Src: []string{"cme_points_symbolic_total", "cme_points_symbolic_total", "cme_points_enumerated_total"}, Det: true},
	{Name: "cme.memo_hit_pct", Unit: "%", Better: "higher", Kind: kRatio, Src: []string{"cme_walk_memo_hits_total", "cme_walks_total"}},

	// Batch solver and the parametric tiers.
	{Name: "cme.prepare_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.prepare"}},
	{Name: "cme.solve_batch_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.solve_batch"}},
	{Name: "cme.prepare_scaling_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.prepare_scaling"}},
	{Name: "cme.solve_ladder_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"cme.solve_ladder"}},
	{Name: "cme.batch_candidates", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_batch_candidates_total"}, Det: true},
	{Name: "cme.batch_dedup", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"cme_batch_dedup_total"}, Det: true},
	{Name: "cme.fused_walk_width", Unit: "candidates", Better: "higher", Kind: kHistMean, Src: []string{"cme_fused_walk_candidates"}},
	{Name: "cme.geom_anchor_solves", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_geom_anchor_solves_total"}},
	{Name: "cme.geom_evals", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"cme_geom_eval_total"}},
	{Name: "cme.geom_purecold", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"cme_geom_purecold_total"}},
	{Name: "cme.geom_fallbacks", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_geom_fallback_total"}},
	{Name: "cme.scaling_fit_solves", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_scaling_fit_solves_total"}},
	{Name: "cme.scaling_closed_evals", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"cme_scaling_closed_evals_total"}},
	{Name: "cme.scaling_fallbacks", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_scaling_fallbacks_total"}},
	{Name: "cme.geom_closed_pct", Unit: "%", Better: "higher", Kind: kCustom},

	// Result cache.
	{Name: "cme.resultcache_hit_pct", Unit: "%", Better: "higher", Kind: kRatio, Src: []string{"cme_resultcache_hits_total", "cme_resultcache_hits_total", "cme_resultcache_misses_total"}},
	{Name: "cme.resultcache_evictions", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"cme_resultcache_evictions_total"}},

	// Simulator (verify phase; moves no timed metric).
	{Name: "trace.simulate_ns_per_access", Unit: "ns/access", Better: "lower", Kind: kCustom},
	{Name: "trace.sharded_speedup", Unit: "x", Better: "higher", Kind: kCustom},

	// Analysis server.
	{Name: "serve.submit_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"serve.submit"}},
	{Name: "serve.job_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"serve.job"}},
	{Name: "serve.queue_wait_p90_ms", Unit: "ms", Better: "lower", Kind: kHistQuantile, Src: []string{"serve_queue_wait_ms"}, Q: 0.9},
	{Name: "serve.queue_depth_max", Unit: "jobs", Better: "lower", Kind: kGauge, Src: []string{"serve_queue_depth"}},
	{Name: "serve.singleflight_hits", Unit: "1/req", Better: "higher", Kind: kCounter, Src: []string{"serve_singleflight_hits_total"}},
	{Name: "serve.shed", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"serve_shed_total"}},
	{Name: "serve.retries", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"serve_job_retries_total"}},
	{Name: "serve.degraded", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"serve_jobs_degraded_total"}},
	{Name: "serve.failed", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"serve_jobs_failed_total"}},

	// Distributed sweeps.
	{Name: "dist.add_sweep_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.add_sweep"}},
	{Name: "dist.wait_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.wait"}},
	{Name: "dist.report_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.report"}},
	{Name: "dist.lease_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.lease"}},
	{Name: "dist.complete_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.complete"}},
	{Name: "dist.heartbeat_ms", Unit: "ms/req", Better: "lower", Kind: kSpan, Src: []string{"dist.heartbeat"}},
	{Name: "dist.lease_wait_p50_ms", Unit: "ms", Better: "lower", Kind: kHistQuantile, Src: []string{"dist_lease_wait_ms"}, Q: 0.5},
	{Name: "dist.unit_solve_ms", Unit: "ms/unit", Better: "lower", Kind: kHistMean, Src: []string{"dist_unit_solve_ms"}},
	{Name: "dist.units", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"dist_units_total"}, Det: true},
	{Name: "dist.units_deduped", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"dist_units_deduped_total"}, Det: true},
	{Name: "dist.units_stolen", Unit: "1/req", Better: "lower", Kind: kCounter, Src: []string{"dist_units_stolen_total"}},
	{Name: "dist.idle_pct", Unit: "%", Better: "lower", Kind: kCustom},

	// Go runtime, over the timed phase.
	{Name: "runtime.alloc_mb", Unit: "MB/req", Better: "lower", Kind: kCustom},
	{Name: "runtime.gc_cycles", Unit: "1/req", Better: "lower", Kind: kCustom},
	{Name: "runtime.gc_pause_ms", Unit: "ms/req", Better: "lower", Kind: kCustom},

	// The benchmark's own accounting.
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower", Kind: kCustom},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Kind: kCustom},
	{Name: "bench.miss_ratio_error_pp", Unit: "pp", Better: "lower", Kind: kCustom, Det: true},
	{Name: "bench.failed_pct", Unit: "%", Better: "lower", Kind: kCustom, Det: true},
	{Name: "bench.gen_lag_p90_ms", Unit: "ms", Better: "lower", Kind: kCustom},
	{Name: "bench.latency_samples", Unit: "requests", Better: "higher", Kind: kCustom},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// exitCode is the process status for a result: any failed request or
// failed check makes the run exit non-zero.
func exitCode(r result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

func metricByName(name string) (metric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
