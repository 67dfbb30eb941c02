package main

// The metric table: every name the benchmark prints, with its unit, its
// clock, the direction that is better and — for end-to-end metrics — the
// bound by which it may worsen before -compare calls it a regression.
// BENCHMARK.json is a projection of this table (a test keeps the two in
// step); README.md explains each entry.

// Workload names.
const (
	wlTable2   = "table2_sim"
	wlKVSim    = "kv_sim"
	wlKVTCP    = "kv_tcp"
	wlRecovery = "recovery_sim"
)

// Clocks. Every number is labelled with the clock it was read from.
const (
	clockHost  = "host"  // wall time of this Go program on this machine
	clockSim   = "sim"   // virtual seconds of the modelled 1999 cluster (internal/simtime)
	clockCount = "count" // a count or a ratio of counts; no clock
)

var (
	kvWorkloads  = []string{wlKVSim, wlKVTCP}
	allWorkloads = []string{wlTable2, wlKVSim, wlKVTCP, wlRecovery}
)

// metricDef describes one metric. A metric is emitted only for the
// workloads it lists (nil = all four).
type metricDef struct {
	Name      string
	Unit      string
	Clock     string
	Better    string // "lower" or "higher"
	Layer     string // "" for an end-to-end metric, else the module name
	Workloads []string
	// Regression bound (end-to-end only): the new median is a regression
	// when it is worse than the old by more than max(Rel*old, Abs).
	// RelBy overrides Rel per workload.
	Rel   float64
	Abs   float64
	RelBy map[string]float64
	// Driver, when set, is the bound BENCHMARK.json carries instead of
	// the loosest of the above. -compare holds two runs made side by
	// side on one seed against each other; the driver holds medians of
	// runs on ten different seeds, made minutes apart on a shared
	// 2-core VM, and README.md's noise floors say how much more room
	// that takes.
	Driver float64
}

func (d *metricDef) appliesTo(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// relBound is the relative bound on one workload.
func (d *metricDef) relBound(workload string) float64 {
	if r, ok := d.RelBy[workload]; ok {
		return r
	}
	return d.Rel
}

// contractBound is the one relative bound BENCHMARK.json can carry for
// the metric: the loosest of its per-workload bounds.
func (d *metricDef) contractBound() float64 {
	if d.Driver > 0 {
		return d.Driver
	}
	b := d.Rel
	for _, r := range d.RelBy {
		b = max(b, r)
	}
	return b
}

// inContractEndToEnd reports whether the metric sits in BENCHMARK.json's
// end_to_end list. The builder's contract wants every end_to_end metric
// from every workload and never 0, so only the metrics defined on all
// four workloads qualify; the workload-specific end-to-end metrics and
// failed_share (0 at a healthy commit) are carried in per_layer instead,
// where -compare still applies the bounds below.
func (d *metricDef) inContractEndToEnd() bool {
	return d.Layer == "" && d.Workloads == nil && d.Name != "failed_share"
}

var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: clockHost, Better: "lower", Rel: 0.25, Abs: 0.25},
	{Name: "host_pass_s", Unit: "s", Clock: clockHost, Better: "lower", Rel: 0.10, Driver: 0.25},
	{Name: "sim_pass_s", Unit: "s", Clock: clockSim, Better: "lower", Rel: 0.01,
		RelBy: map[string]float64{wlKVSim: 0.03, wlKVTCP: 0.03}},
	{Name: "host_alloc_mb", Unit: "MB", Clock: clockHost, Better: "lower", Rel: 0.02},
	{Name: "host_mallocs_k", Unit: "k", Clock: clockHost, Better: "lower", Rel: 0.02},
	{Name: "host_peak_rss_mb", Unit: "MB", Clock: clockHost, Better: "lower", Rel: 0.10, Driver: 0.15},
	{Name: "log_mb", Unit: "MB", Clock: clockSim, Better: "lower", Rel: 0.01, Driver: 0.04,
		RelBy: map[string]float64{wlKVTCP: 0.03}}, // a median of 13 op streams cannot resolve 1%
	{Name: "failed_share", Unit: "ratio", Clock: clockCount, Better: "lower"},
	{Name: "ccl_norm_exec_pct", Unit: "%", Clock: clockSim, Better: "lower", Workloads: []string{wlTable2}, Abs: 1.0},
	{Name: "ml_norm_exec_pct", Unit: "%", Clock: clockSim, Better: "lower", Workloads: []string{wlTable2}, Abs: 1.0},
	{Name: "ccl_ml_log_ratio_pct", Unit: "%", Clock: clockSim, Better: "lower", Workloads: []string{wlTable2}, Abs: 0.5},
	{Name: "sim_recovery_s", Unit: "s", Clock: clockSim, Better: "lower", Workloads: []string{wlRecovery}, Rel: 0.02},
	{Name: "host_txn_p50_us", Unit: "us", Clock: clockHost, Better: "lower", Workloads: kvWorkloads, Rel: 0.10},
	{Name: "host_txn_p99_us", Unit: "us", Clock: clockHost, Better: "lower", Workloads: kvWorkloads, Rel: 0.10},
	{Name: "sim_txn_p99_us", Unit: "us", Clock: clockSim, Better: "lower", Workloads: kvWorkloads, Rel: 0.03},
}

// e2eDef returns the end-to-end metric of that name.
func e2eDef(name string) *metricDef {
	for i := range endToEndMetrics {
		if endToEndMetrics[i].Name == name {
			return &endToEndMetrics[i]
		}
	}
	panic("benchmark: no end-to-end metric " + name)
}

func layerMetric(layer, name, unit, clock, better string, workloads ...string) metricDef {
	return metricDef{Name: layer + "." + name, Unit: unit, Clock: clock, Better: better, Layer: layer, Workloads: workloads}
}

// Host probes and counts run on every workload (a probe is fed with the
// workload's own diffs and records); sim shares and the tcp and recovery
// counts exist only where the layer does work.
var perLayerMetrics = []metricDef{
	layerMetric("apps", "build_ms", "ms", clockHost, "lower"),
	layerMetric("apps", "check_ms", "ms", clockHost, "lower"),
	layerMetric("apps", "solo_pass_s", "s", clockHost, "lower"),

	layerMetric("core", "empty_run_ms", "ms", clockHost, "lower"),
	layerMetric("core", "empty_run_tcp_ms", "ms", clockHost, "lower"),

	layerMetric("hlrc", "faults", "count", clockCount, "lower"),
	layerMetric("hlrc", "page_fetches", "count", clockCount, "lower"),
	layerMetric("hlrc", "twins_created", "count", clockCount, "lower"),
	layerMetric("hlrc", "diffs_created", "count", clockCount, "lower"),
	layerMetric("hlrc", "diff_kb_sent", "KB", clockCount, "lower"),
	layerMetric("hlrc", "lock_acquires", "count", clockCount, "lower"),
	layerMetric("hlrc", "barriers", "count", clockCount, "lower"),
	layerMetric("hlrc", "lock_handoff_us", "us", clockHost, "lower"),
	layerMetric("hlrc", "barrier_round_us", "us", clockHost, "lower"),
	layerMetric("hlrc", "page_fetch_us", "us", clockHost, "lower"),
	layerMetric("hlrc", "release_diffs_us", "us", clockHost, "lower"),

	layerMetric("memory", "make_diff_ns", "ns", clockHost, "lower"),
	layerMetric("memory", "apply_diff_ns", "ns", clockHost, "lower"),
	layerMetric("memory", "diff_codec_ns", "ns", clockHost, "lower"),

	layerMetric("vclock", "merge_ns", "ns", clockHost, "lower"),

	layerMetric("wal", "log_appends", "count", clockCount, "lower"),
	layerMetric("wal", "ccl_release_ns", "ns", clockHost, "lower"),
	layerMetric("wal", "ccl_release_allocs", "count", clockHost, "lower"),
	layerMetric("wal", "ml_incoming_ns", "ns", clockHost, "lower"),
	layerMetric("wal", "record_codec_ns", "ns", clockHost, "lower"),

	layerMetric("stable", "flushes", "count", clockCount, "lower"),
	layerMetric("stable", "mean_flush_kb", "KB", clockCount, "lower"),
	layerMetric("stable", "read_mb", "MB", clockCount, "lower"),
	layerMetric("stable", "flush_ns_per_kb", "ns/KB", clockHost, "lower"),
	layerMetric("stable", "valid_prefix_ns_per_rec", "ns", clockHost, "lower"),

	layerMetric("checkpoint", "mb", "MB", clockCount, "lower"),

	layerMetric("recovery", "replay_s_ml", "s", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "replay_s_ccl", "s", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "ml_reduction_pct", "%", clockSim, "higher", wlRecovery),
	layerMetric("recovery", "ccl_reduction_pct", "%", clockSim, "higher", wlRecovery),
	layerMetric("recovery", "log_read_pct", "%", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "diff_fetch_pct", "%", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "page_fetch_pct", "%", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "replay_pct", "%", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "rejoin_s", "s", clockSim, "lower", wlRecovery),
	layerMetric("recovery", "host_extra_s", "s", clockHost, "lower", wlRecovery),

	layerMetric("transport", "msgs", "count", clockCount, "lower"),
	layerMetric("transport", "model_mb", "MB", clockCount, "lower"),
	layerMetric("transport", "call_us", "us", clockHost, "lower"),

	layerMetric("tcp", "frames", "count", clockCount, "lower", wlKVTCP),
	layerMetric("tcp", "batches", "count", clockCount, "lower", wlKVTCP),
	layerMetric("tcp", "wire_mb", "MB", clockCount, "lower", wlKVTCP),
	layerMetric("tcp", "wire_over_model", "ratio", clockCount, "lower", wlKVTCP),
	layerMetric("tcp", "reconnects", "count", clockCount, "lower", wlKVTCP),
	layerMetric("tcp", "call_us", "us", clockHost, "lower"),
	layerMetric("tcp", "frame_encode_ns", "ns", clockHost, "lower"),
	layerMetric("tcp", "frame_decode_ns", "ns", clockHost, "lower"),
	layerMetric("tcp", "wire_bytes_per_call", "B", clockCount, "lower"),

	layerMetric("simtime", "crit_compute_pct_ccl", "%", clockSim, "higher", wlTable2),
	layerMetric("simtime", "crit_coherence_pct_ccl", "%", clockSim, "lower", wlTable2),
	layerMetric("simtime", "crit_logging_pct_ccl", "%", clockSim, "lower", wlTable2),
	layerMetric("simtime", "crit_logging_pct_ml", "%", clockSim, "lower", wlTable2),
	layerMetric("simtime", "crit_fault_pct_ccl", "%", clockSim, "lower", wlTable2),
	layerMetric("simtime", "txn_lock_wait_pct", "%", clockSim, "lower", kvWorkloads...),

	layerMetric("logview", "audit_ns_per_rec", "ns", clockHost, "lower"),
	layerMetric("logview", "audit_records", "count", clockCount, "lower"),

	layerMetric("obsv", "trace_overhead_pct", "%", clockHost, "lower"),
	layerMetric("obsv", "events_k", "k", clockCount, "lower"),
	layerMetric("obsv", "critpath_ms", "ms", clockHost, "lower"),
}

// contractLists returns BENCHMARK.json's two metric lists, in table
// order: end_to_end (the metrics every workload reports) and per_layer
// (the rest of the end-to-end table, then the layer metrics).
func contractLists() (endToEnd, perLayer []*metricDef) {
	for i := range endToEndMetrics {
		d := &endToEndMetrics[i]
		if d.inContractEndToEnd() {
			endToEnd = append(endToEnd, d)
		} else {
			perLayer = append(perLayer, d)
		}
	}
	for i := range perLayerMetrics {
		perLayer = append(perLayer, &perLayerMetrics[i])
	}
	return endToEnd, perLayer
}
