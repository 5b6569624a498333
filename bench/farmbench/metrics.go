package main

// metricDef names one reported metric. The lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root carries
// the same names and units plus the end-to-end bounds, and a test keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees that hold a
// regression bound, measured with tracing off: one sample per timed
// batch (per child for peak_rss_mb and setup_s).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_mb_per_traj", "MB", "lower"},
	{"allocs_per_traj", "count", "lower"},
}

// timing are the end-to-end speed metrics, sampled like endToEnd but
// without a bound in BENCHMARK.json: on a shared host their run-to-run
// drift is wider than any bound it admits (see bench/README.md). They
// are printed, kept in -json records, and judged by -compare's
// alternating-pairs rule.
var timing = []metricDef{
	{"wall_s", "s", "lower"},
	{"traj_per_s", "1/s", "higher"},
	{"cpu_s_per_traj", "s", "lower"},
}

// perLayer are the -trace pass's metrics. Counts are per-trajectory
// means over the traced trajectories unless the name says otherwise;
// "sim_" quantities are in simulated hours.
var perLayer = []metricDef{
	{"cluster.new_s.p50", "s", "lower"},
	{"cluster.new_share", "ratio", "lower"},
	{"cluster.new_allocs", "count", "lower"},
	{"cluster.disks", "count", "lower"},
	{"cluster.groups", "count", "lower"},
	{"placement.place_ns", "ns", "lower"},
	{"placement.recovery_target_ns", "ns", "lower"},
	{"sim.hold_ns", "ns", "lower"},
	{"core.run_s.p50", "s", "lower"},
	{"core.run_s.p90", "s", "lower"},
	{"core.loop_s.p50", "s", "lower"},
	{"core.run_allocs.p50", "count", "lower"},
	{"core.mc_efficiency", "ratio", "higher"},
	{"core.planned_drains", "count", "lower"},
	{"core.fenced_parks", "count", "lower"},
	{"recovery.blocks_rebuilt", "count", "lower"},
	{"recovery.rebuilds_per_failure", "ratio", "lower"},
	{"recovery.retries", "count", "lower"},
	{"recovery.hedges", "count", "lower"},
	{"recovery.hedge_win_ratio", "ratio", "higher"},
	{"recovery.timeouts", "count", "lower"},
	{"recovery.redirections", "count", "lower"},
	{"recovery.spares_used", "count", "lower"},
	{"recovery.disk_hours", "h", "lower"},
	{"recovery.sim_queue_h.mean", "h", "lower"},
	{"recovery.sim_transfer_h.mean", "h", "lower"},
	{"faults.lse_injected", "count", "lower"},
	{"faults.transient_faults", "count", "lower"},
	{"faults.bursts", "count", "lower"},
	{"topology.cross_rack_transfers", "count", "lower"},
	{"topology.parked", "count", "lower"},
	{"workload.degraded_reads", "count", "lower"},
	{"workload.throttle_steps", "count", "lower"},
	{"workload.share_ns", "ns", "lower"},
	{"replace.batches", "count", "lower"},
	{"replace.rebalance_s", "s", "lower"},
	{"replace.rebalance_allocs", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.tap_overhead_frac", "ratio", "lower"},
	{"trace.check_s", "s", "lower"},
	{"trace.violations", "count", "lower"},
	{"obs.spans", "count", "lower"},
	{"forensics.analyze_s", "s", "lower"},
	{"forensics.postmortems", "count", "lower"},
	{"forensics.unattributed", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
}
