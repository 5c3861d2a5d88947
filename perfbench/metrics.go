package main

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it. Bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host-time metrics a user of the tools sees, reported
// by every workload from an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// pipelineLayers are the configurations whose replay cost the traced run
// reports per instruction, as pipeline.<layer>.ns_per_inst.
var pipelineLayers = []string{"base", "compiler", "hw_pred", "hw_early", "hw_dual", "assist"}

// experiments are the harness.Runner experiment methods paper-grid times
// one by one in its traced run, in the order Document runs them, plus
// FigureMech, which Document omits.
var experiments = []string{"table2", "table3", "table4", "fig5a", "fig5b", "fig5c", "embedded", "figmech"}

// perLayer are the metrics of a traced run, named by module. A workload
// that does not exercise a layer reports it as 0. The model.* metrics are
// simulated-time statistics of the modelled design, exact and identical
// on any change that only alters simulator speed.
var perLayer = func() []metricDef {
	d := []metricDef{
		{Name: "passman.build_ms", Unit: "ms", Better: "lower"},
		{Name: "passman.us_per_inst", Unit: "us", Better: "lower"},
		{Name: "core.reclassify_us", Unit: "us", Better: "lower"},
		{Name: "profile.ns_per_inst", Unit: "ns", Better: "lower"},
		{Name: "profile.runs", Unit: "count", Better: "lower"},
		{Name: "emu.ns_per_inst", Unit: "ns", Better: "lower"},
		{Name: "emu.insts", Unit: "count", Better: "lower"},
		{Name: "pipeline.ns_per_sim_inst", Unit: "ns", Better: "lower"},
	}
	for _, l := range pipelineLayers {
		d = append(d, metricDef{Name: "pipeline." + l + ".ns_per_inst", Unit: "ns", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "pipeline.sim_insts", Unit: "count", Better: "lower"},
		metricDef{Name: "pipeline.batch_width", Unit: "count", Better: "higher"},
		metricDef{Name: "harness.lab_build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.lab_builds", Unit: "count", Better: "lower"},
		metricDef{Name: "harness.arch_passes", Unit: "count", Better: "lower"},
		metricDef{Name: "harness.replayed_entries", Unit: "count", Better: "lower"},
	)
	for _, e := range experiments {
		d = append(d, metricDef{Name: "harness.exp." + e + "_s", Unit: "s", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "harness.encode_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.compile_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.simulate_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.job_p95_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.rejected", Unit: "count", Better: "lower"},
		metricDef{Name: "artifact.misses", Unit: "count", Better: "lower"},
		metricDef{Name: "artifact.mem_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "artifact.evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "model.spec_speedup_avg", Unit: "x", Better: "higher"},
		metricDef{Name: "model.media_speedup_avg", Unit: "x", Better: "higher"},
		metricDef{Name: "model.base_cycles", Unit: "cycles", Better: "lower"},
		metricDef{Name: "model.compiler_cycles", Unit: "cycles", Better: "lower"},
		metricDef{Name: "model.predict_forward_rate", Unit: "ratio", Better: "higher"},
		metricDef{Name: "model.early_forward_rate", Unit: "ratio", Better: "higher"},
		metricDef{Name: "model.dcache_miss_rate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "model.grid_doc_sha48", Unit: "sha256-48", Better: "lower"},
		metricDef{Name: "model.figmech_doc_sha48", Unit: "sha256-48", Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "trace.other_frac", Unit: "ratio", Better: "lower"},
	)
	return d
}()
