// Package obs is the simulator's flight recorder: a deterministic,
// allocation-free observability layer threaded through core, recovery,
// faults, and objstore.
//
// It provides four instruments, all strictly read-only with respect to
// the simulation — enabling any of them leaves RunResult and the trace
// transcript byte-identical for the same seed (pinned by the golden
// byte-identity test in internal/core):
//
//   - a metrics Registry of named counters, gauges, and fixed-bucket
//     histograms with zero-alloc record paths (gated by AllocsPerRun
//     tests) and JSONL / Prometheus-text exposition;
//   - rebuild-lifecycle Spans: every block rebuild tracked from
//     disk-fail → detect → queued → transfer-start → done/dropped with a
//     per-phase sim-time breakdown (queue wait, transfer, retry backoff,
//     hedge overlap);
//   - a time-series Series of periodic system-state Samples (active
//     rebuilds, in-flight recovery bandwidth, degraded groups by
//     redundancy remaining, spare-pool level, slow/suspect disks);
//   - a Campaign aggregating live Monte Carlo telemetry (progress, ETA,
//     per-worker throughput, merged registries) behind an optional HTTP
//     endpoint with Prometheus text and net/http/pprof.
//
// Run outcomes are not mirrored into the registry as they happen. A run
// counts each event once, in the Tally the core simulator embeds in its
// RunResult; an attached registry receives every outcome counter in one
// pass at the horizon, driven by the core's outcome table, and only the
// per-rebuild histograms (which bin values no tally keeps) record live.
// An unobserved run touches no metric instrument at all.
//
// Determinism contract: metric registration happens at run setup or at
// the horizon export (may allocate); the record paths (Counter.Inc/Add, Gauge.Set, Histogram
// .Observe) never allocate and never consult wall clocks or randomness.
// Registries from a Monte Carlo campaign merge in run-index order, so the
// merged registry is byte-identical regardless of worker count.
package obs

// Name is a metric identifier. The farmlint metricname analyzer enforces
// the vocabulary contract: Name constants are unique snake_case
// ([a-z_]+) strings declared only in this package, so exposition
// consumers (farmstat, Prometheus scrapes) see a closed, collision-free
// catalogue.
type Name string

// Metric catalogue — counters. The *_total suffix follows Prometheus
// convention for monotone counters.
const (
	// Simulator-level event counters (internal/core).
	MetricDiskFailures     Name = "disk_failures_total"
	MetricDataLossGroups   Name = "data_loss_groups_total"
	MetricBatchesAdded     Name = "batches_added_total"
	MetricDisksAdded       Name = "disks_added_total"
	MetricPredicted        Name = "predicted_failures_total"
	MetricDrainedBlocks    Name = "drained_blocks_total"
	MetricLSEInjected      Name = "lse_injected_total"
	MetricLSEDetected      Name = "lse_detected_total"
	MetricScrubFound       Name = "scrub_found_total"
	MetricBursts           Name = "bursts_total"
	MetricBurstKills       Name = "burst_kills_total"
	MetricFailSlowOnsets   Name = "failslow_onsets_total"
	MetricFailSlowRecovers Name = "failslow_recoveries_total"
	MetricSlowBursts       Name = "slow_bursts_total"

	// Network fault-domain counters (internal/core + internal/topology).
	MetricSwitchFails     Name = "switch_fails_total"
	MetricRackPowerEvents Name = "rack_power_events_total"
	MetricPartitions      Name = "partitions_total"
	MetricPartitionHeals  Name = "partition_heals_total"
	MetricFalseDeadRacks  Name = "false_dead_racks_total"
	MetricFalseDeadDisks  Name = "false_dead_disks_total"

	// Recovery-engine counters (internal/recovery).
	MetricBlocksRebuilt   Name = "blocks_rebuilt_total"
	MetricRebuildsDropped Name = "rebuilds_dropped_total"
	MetricRedirections    Name = "redirections_total"
	MetricResourcings     Name = "resourcings_total"
	MetricRetries         Name = "rebuild_retries_total"
	MetricTransientFaults Name = "transient_faults_total"
	MetricHedges          Name = "hedges_total"
	MetricHedgeWins       Name = "hedge_wins_total"
	MetricTimeouts        Name = "rebuild_timeouts_total"
	MetricSlowFlagged     Name = "slow_flagged_total"
	MetricSlowEvicted     Name = "slow_evicted_total"
	MetricSpareWaits      Name = "spare_waits_total"
	MetricSparesUsed      Name = "spares_used_total"
	// Topology-aware recovery counters: cross-rack repair traffic and
	// transfers parked against dark racks.
	MetricCrossRackTransfers Name = "cross_rack_transfers_total"
	MetricCrossRackBytes     Name = "cross_rack_bytes_total"
	MetricParkedTransfers    Name = "parked_transfers_total"

	// Living-fleet counters: foreground-traffic coexistence
	// (internal/recovery) and planned maintenance (internal/core).
	MetricDegradedReads Name = "degraded_reads_total"
	MetricThrottleSteps Name = "throttle_steps_total"
	MetricDemandBursts  Name = "demand_bursts_total"
	MetricDrainsPlanned Name = "drains_planned_total"
	MetricUpgradeWins   Name = "upgrade_windows_total"
	MetricGrowthBatches Name = "growth_batches_total"
	MetricGrowthDisks   Name = "growth_disks_total"

	// Fault-injection probe counters (internal/faults).
	MetricProbeReads     Name = "probe_reads_total"
	MetricProbeTransient Name = "probe_transient_total"
	MetricProbeLatent    Name = "probe_latent_total"

	// Object-store data-path counters (internal/objstore).
	MetricObjDegradedReads  Name = "objstore_degraded_reads_total"
	MetricObjCorruptRegions Name = "objstore_corrupt_regions_total"
	MetricObjRepairs        Name = "objstore_repairs_total"
	MetricObjShardsRebuilt  Name = "objstore_shards_rebuilt_total"

	// Loss-forensics counters (internal/forensics): one postmortem per
	// traced data-loss or dropped-rebuild event, bucketed by the
	// deterministic taxonomy.
	MetricPostmortems          Name = "postmortems_total"
	MetricPostmortemLosses     Name = "postmortem_losses_total"
	MetricPostmortemDrops      Name = "postmortem_drops_total"
	MetricLossFalseDead        Name = "loss_false_dead_writeoff_total"
	MetricLossLSERebuild       Name = "loss_lse_during_rebuild_total"
	MetricLossLSEScrub         Name = "loss_lse_at_scrub_total"
	MetricLossBurstSpare       Name = "loss_burst_spare_exhaustion_total"
	MetricLossBurst            Name = "loss_correlated_burst_total"
	MetricLossIndependent      Name = "loss_independent_failures_total"
	MetricDropTimeout          Name = "drop_timeout_abandon_total"
	MetricDropSourceExhaustion Name = "drop_source_exhaustion_total"
	MetricDropGroupLost        Name = "drop_group_lost_total"
)

// Metric catalogue — gauges (sampled system state).
const (
	MetricActiveRebuilds Name = "active_rebuilds"
	MetricQueuedRebuilds Name = "queued_rebuilds"
	MetricBusyDisks      Name = "busy_disks"
	MetricRecoveryMBps   Name = "recovery_mbps_in_flight"
	MetricDegradedGroups Name = "degraded_groups"
	MetricLostGroups     Name = "lost_groups"
	MetricSparePoolFree  Name = "spare_pool_free"
	MetricAliveDisks     Name = "alive_disks"
	MetricSlowDisks      Name = "slow_disks"
	MetricSuspectDisks   Name = "suspect_disks"
	MetricUserLoadShare  Name = "user_load_share"
	MetricThrottleMBps   Name = "throttle_mbps"
)

// Metric catalogue — histograms (per-rebuild phase breakdowns, hours).
const (
	MetricWindowHours       Name = "rebuild_window_hours"
	MetricQueueWaitHours    Name = "rebuild_queue_wait_hours"
	MetricTransferHours     Name = "rebuild_transfer_hours"
	MetricRetryWaitHours    Name = "rebuild_retry_wait_hours"
	MetricHedgeOverlapHours Name = "rebuild_hedge_overlap_hours"
	MetricDetectWaitHours   Name = "rebuild_detect_wait_hours"
	MetricDegradedLatency   Name = "degraded_read_latency_ms"

	// Loss-forensics histograms: per-postmortem vulnerability windows
	// (hours) and the leading blame fractions of each loss's normalized
	// blame vector.
	MetricPostmortemWindow Name = "postmortem_window_hours"
	MetricBlameTransfer    Name = "blame_transfer_fraction"
	MetricBlameDetect      Name = "blame_detect_fraction"
	MetricBlameStretch     Name = "blame_stretch_fraction"
)

// PhaseBounds are the default histogram bucket upper bounds for the
// rebuild-phase histograms, in hours: exponential from ~4 s to ~42 days.
// An implicit +Inf bucket catches the rest.
var PhaseBounds = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000,
}

// LatencyBounds are the histogram bucket upper bounds for read-latency
// metrics, in milliseconds: exponential from a healthy seek to a
// pathological multi-second reconstruction. Implicit +Inf catches worse.
var LatencyBounds = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// FractionBounds are the histogram bucket upper bounds for blame
// fractions on [0, 1]: dense at both ends, where "negligible" and
// "dominant" verdicts live. Implicit +Inf catches exactly-1.0.
var FractionBounds = []float64{
	0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99,
}
