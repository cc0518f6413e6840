package main

// perLayer are the metrics every workload reports with --trace 1. A
// layer a workload does not reach reports 0 there; README.md gives the
// workload each metric should move and the one it should leave flat.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"building.steps", "count"},
		{"building.cells_stepped", "count"},
		{"dataset.generate_s", "s"},
		{"dataset.sim_steps", "count"},
		{"dataset.samples", "count"},
		{"sensornet.drop_ratio", "ratio"},
		{"sysid.fits", "count"},
		{"sysid.fit_equations", "count"},
		{"sysid.evaluations", "count"},
		{"sysid.fit_s", "s"},
		{"sysid.evaluate_s", "s"},
		{"mat.qr_factorizations", "count"},
		{"mat.eigensolves", "count"},
		{"mat.jacobi_sweeps", "count"},
		{"mat.spectral_radius_s", "s"},
		{"cluster.spectral_runs", "count"},
		{"cluster.kmeans_iterations", "count"},
		{"cluster.s", "s"},
		{"selection.gp_candidate_evals", "count"},
		{"selection.s", "s"},
		{"control.ticks", "count"},
		{"control.decisions", "count"},
		{"control.s", "s"},
	}
	for _, r := range paperReports {
		out = append(out,
			struct{ name, unit string }{"experiments." + r + "_s", "s"},
			struct{ name, unit string }{"experiments." + r + "_fits", "count"})
	}
	return append(out, []struct{ name, unit string }{
		{"pipeline.stages", "count"},
		{"pipeline.hit_ratio", "ratio"},
		{"pipeline.warm_resolve_s", "s"},
		{"artifact.encode_s", "s"},
		{"artifact.write_s", "s"},
		{"artifact.stat_s", "s"},
		{"artifact.open_decode_s", "s"},
		{"artifact.write_bytes", "bytes"},
		{"artifact.read_bytes", "bytes"},
		{"artifact.value_hit_ratio", "ratio"},
		{"artifact.mem_hit_ratio", "ratio"},
		{"par.tasks", "count"},
		{"par.worker_busy_s", "s"},
		{"par.utilization", "ratio"},
		{"serve.response_hit_ratio", "ratio"},
		{"serve.coalesced", "count"},
		{"serve.errors", "count"},
		{"serve.server_ms", "ms"},
		{"serve.wire_queue_ms", "ms"},
		{"serve.gen_lag_ms", "ms"},
		{"obs.trace_overhead", "ratio"},
	}...)
}()

// paperReports are the experiments.Catalog ids, in print order.
var paperReports = []string{
	"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"table2", "fig9", "fig10", "fig11", "control", "virtual",
}

// spanSpectral times (*sysid.Model).SpectralRadius in the traced fleet,
// whose stages are timed in spans named "stage." plus the stage suffix
// of the member's node name.
const spanSpectral = "mat.spectral_radius"

// setLayers fills every per-layer metric that comes from obs counter
// deltas d over the traced phase, the traced phase's spans and the
// store wrapper (nil when the workload's store cannot be wrapped).
// Workload-specific metrics (experiments.*, pipeline.warm_resolve_s,
// par.utilization, serve.*, obs.trace_overhead) are set by the caller;
// those left unset here default to 0.
func (b *bench) setLayers(d counters, spans []span, store *storeBytes) {
	l := b.layer
	for _, m := range perLayer {
		l[m.name] = 0
	}
	l["building.steps"] = d["auditherm_building_steps_total"]
	l["building.cells_stepped"] = d["auditherm_building_cells_stepped_total"]
	l["dataset.generate_s"] = d["auditherm_dataset_generate_seconds_sum"]
	l["dataset.sim_steps"] = d["auditherm_dataset_sim_steps_total"]
	l["dataset.samples"] = d["auditherm_dataset_samples_total"]
	l["sensornet.drop_ratio"] = ratio(d["auditherm_sensornet_dropped_total"], d["auditherm_sensornet_ingested_total"])
	l["sysid.fits"] = d["auditherm_sysid_fits_total"]
	l["sysid.fit_equations"] = d["auditherm_sysid_fit_equations_total"]
	l["sysid.evaluations"] = d["auditherm_sysid_evaluations_total"]
	l["mat.qr_factorizations"] = d["auditherm_mat_qr_factorizations_total"]
	l["mat.eigensolves"] = d["auditherm_mat_eigensolves_total"]
	l["mat.jacobi_sweeps"] = d["auditherm_mat_jacobi_sweeps_total"]
	l["cluster.spectral_runs"] = d["auditherm_cluster_spectral_runs_total"]
	l["cluster.kmeans_iterations"] = d["auditherm_cluster_kmeans_iterations_total"]
	l["selection.gp_candidate_evals"] = d["auditherm_selection_gp_candidate_evals_total"]
	l["control.ticks"] = d["auditherm_control_ticks_total"]
	l["control.decisions"] = d["auditherm_control_decisions_total"]
	l["pipeline.stages"] = d["auditherm_pipeline_stages_total"]
	l["pipeline.hit_ratio"] = ratio(d["auditherm_pipeline_cache_hits_total"], d["auditherm_pipeline_cache_misses_total"])
	l["artifact.value_hit_ratio"] = ratio(d["auditherm_artifact_value_hits_total"], d["auditherm_artifact_value_misses_total"])
	l["artifact.mem_hit_ratio"] = ratio(d["auditherm_artifact_mem_hits_total"], d["auditherm_artifact_mem_misses_total"])
	l["par.tasks"] = d["auditherm_par_tasks_total"]
	l["par.worker_busy_s"] = d["auditherm_par_worker_busy_seconds_sum"]
	l["serve.coalesced"] = d["auditherm_serve_coalesced_total"]
	l["serve.errors"] = d["auditherm_serve_errors_total"]
	l["serve.response_hit_ratio"] = ratio(d["auditherm_serve_response_cache_hits_total"], d["auditherm_serve_response_cache_misses_total"])

	self, total := selfByName(spans), totalByName(spans)
	l["sysid.fit_s"] = self["stage.sysid"]
	l["sysid.evaluate_s"] = self["stage.evaluate"]
	l["cluster.s"] = self["stage.cluster"]
	l["selection.s"] = self["stage.select"]
	l["control.s"] = self["stage.control"]
	l["mat.spectral_radius_s"] = total[spanSpectral]
	for _, r := range paperReports {
		l["experiments."+r+"_s"] = self["experiments."+r]
	}
	l["artifact.encode_s"] = total[spanEncode]
	l["artifact.write_s"] = self[spanPut]
	l["artifact.stat_s"] = total[spanStat]
	l["artifact.open_decode_s"] = total[spanOpen]
	if store != nil {
		l["artifact.write_bytes"] = float64(store.wrote.Load())
		l["artifact.read_bytes"] = float64(store.read.Load())
	}
}
