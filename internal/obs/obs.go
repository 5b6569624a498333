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

// Name is a metric identifier: an index into the catalogue's name
// table. The zero Name is no metric, and registering it panics. A metric
// can only be named by a catalogue constant, so exposition consumers
// (farmstat, Prometheus scrapes) see a closed catalogue;
// TestMetricNameTable checks that the names are unique snake_case
// ([a-z_]+) strings.
type Name uint8

// Metric catalogue. Counters come first; their *_total suffix follows
// the Prometheus convention for monotone counters.
const (
	// Simulator-level event counters (internal/core).
	MetricDiskFailures Name = iota + 1
	MetricDataLossGroups
	MetricBatchesAdded
	MetricDisksAdded
	MetricPredicted
	MetricDrainedBlocks
	MetricLSEInjected
	MetricLSEDetected
	MetricScrubFound
	MetricBursts
	MetricBurstKills
	MetricFailSlowOnsets
	MetricFailSlowRecovers
	MetricSlowBursts

	// Network fault-domain counters (internal/core + internal/topology).
	MetricSwitchFails
	MetricRackPowerEvents
	MetricPartitions
	MetricPartitionHeals
	MetricFalseDeadRacks
	MetricFalseDeadDisks

	// Recovery-engine counters (internal/recovery).
	MetricBlocksRebuilt
	MetricRebuildsDropped
	MetricRedirections
	MetricResourcings
	MetricRetries
	MetricTransientFaults
	MetricHedges
	MetricHedgeWins
	MetricTimeouts
	MetricSlowFlagged
	MetricSlowEvicted
	MetricSpareWaits
	MetricSparesUsed
	// Topology-aware recovery counters: cross-rack repair traffic and
	// transfers parked against dark racks.
	MetricCrossRackTransfers
	MetricCrossRackBytes
	MetricParkedTransfers

	// Living-fleet counters: foreground-traffic coexistence
	// (internal/recovery) and planned maintenance (internal/core).
	MetricDegradedReads
	MetricThrottleSteps
	MetricDemandBursts
	MetricDrainsPlanned
	MetricUpgradeWins
	MetricGrowthBatches
	MetricGrowthDisks

	// Fault-injection probe counters (internal/faults).
	MetricProbeReads
	MetricProbeTransient
	MetricProbeLatent

	// Loss-forensics counters (internal/forensics): one postmortem per
	// traced data-loss or dropped-rebuild event, bucketed by the
	// deterministic taxonomy.
	MetricPostmortems
	MetricPostmortemLosses
	MetricPostmortemDrops
	MetricLossFalseDead
	MetricLossLSERebuild
	MetricLossLSEScrub
	MetricLossBurstSpare
	MetricLossBurst
	MetricLossIndependent
	MetricDropTimeout
	MetricDropSourceExhaustion
	MetricDropGroupLost

	// Gauges (sampled system state).
	MetricActiveRebuilds
	MetricQueuedRebuilds
	MetricBusyDisks
	MetricRecoveryMBps
	MetricDegradedGroups
	MetricLostGroups
	MetricSparePoolFree
	MetricAliveDisks
	MetricSlowDisks
	MetricSuspectDisks
	MetricUserLoadShare
	MetricThrottleMBps

	// Histograms (per-rebuild phase breakdowns, hours).
	MetricWindowHours
	MetricQueueWaitHours
	MetricTransferHours
	MetricRetryWaitHours
	MetricHedgeOverlapHours
	MetricDetectWaitHours
	MetricDegradedLatency

	// Loss-forensics histograms: per-postmortem vulnerability windows
	// (hours) and the leading blame fractions of each loss's normalized
	// blame vector.
	MetricPostmortemWindow
	MetricBlameTransfer
	MetricBlameDetect
	MetricBlameStretch
)

// names is the catalogue's name table, indexed by Name.
var names = [...]string{
	MetricDiskFailures:         "disk_failures_total",
	MetricDataLossGroups:       "data_loss_groups_total",
	MetricBatchesAdded:         "batches_added_total",
	MetricDisksAdded:           "disks_added_total",
	MetricPredicted:            "predicted_failures_total",
	MetricDrainedBlocks:        "drained_blocks_total",
	MetricLSEInjected:          "lse_injected_total",
	MetricLSEDetected:          "lse_detected_total",
	MetricScrubFound:           "scrub_found_total",
	MetricBursts:               "bursts_total",
	MetricBurstKills:           "burst_kills_total",
	MetricFailSlowOnsets:       "failslow_onsets_total",
	MetricFailSlowRecovers:     "failslow_recoveries_total",
	MetricSlowBursts:           "slow_bursts_total",
	MetricSwitchFails:          "switch_fails_total",
	MetricRackPowerEvents:      "rack_power_events_total",
	MetricPartitions:           "partitions_total",
	MetricPartitionHeals:       "partition_heals_total",
	MetricFalseDeadRacks:       "false_dead_racks_total",
	MetricFalseDeadDisks:       "false_dead_disks_total",
	MetricBlocksRebuilt:        "blocks_rebuilt_total",
	MetricRebuildsDropped:      "rebuilds_dropped_total",
	MetricRedirections:         "redirections_total",
	MetricResourcings:          "resourcings_total",
	MetricRetries:              "rebuild_retries_total",
	MetricTransientFaults:      "transient_faults_total",
	MetricHedges:               "hedges_total",
	MetricHedgeWins:            "hedge_wins_total",
	MetricTimeouts:             "rebuild_timeouts_total",
	MetricSlowFlagged:          "slow_flagged_total",
	MetricSlowEvicted:          "slow_evicted_total",
	MetricSpareWaits:           "spare_waits_total",
	MetricSparesUsed:           "spares_used_total",
	MetricCrossRackTransfers:   "cross_rack_transfers_total",
	MetricCrossRackBytes:       "cross_rack_bytes_total",
	MetricParkedTransfers:      "parked_transfers_total",
	MetricDegradedReads:        "degraded_reads_total",
	MetricThrottleSteps:        "throttle_steps_total",
	MetricDemandBursts:         "demand_bursts_total",
	MetricDrainsPlanned:        "drains_planned_total",
	MetricUpgradeWins:          "upgrade_windows_total",
	MetricGrowthBatches:        "growth_batches_total",
	MetricGrowthDisks:          "growth_disks_total",
	MetricProbeReads:           "probe_reads_total",
	MetricProbeTransient:       "probe_transient_total",
	MetricProbeLatent:          "probe_latent_total",
	MetricPostmortems:          "postmortems_total",
	MetricPostmortemLosses:     "postmortem_losses_total",
	MetricPostmortemDrops:      "postmortem_drops_total",
	MetricLossFalseDead:        "loss_false_dead_writeoff_total",
	MetricLossLSERebuild:       "loss_lse_during_rebuild_total",
	MetricLossLSEScrub:         "loss_lse_at_scrub_total",
	MetricLossBurstSpare:       "loss_burst_spare_exhaustion_total",
	MetricLossBurst:            "loss_correlated_burst_total",
	MetricLossIndependent:      "loss_independent_failures_total",
	MetricDropTimeout:          "drop_timeout_abandon_total",
	MetricDropSourceExhaustion: "drop_source_exhaustion_total",
	MetricDropGroupLost:        "drop_group_lost_total",
	MetricActiveRebuilds:       "active_rebuilds",
	MetricQueuedRebuilds:       "queued_rebuilds",
	MetricBusyDisks:            "busy_disks",
	MetricRecoveryMBps:         "recovery_mbps_in_flight",
	MetricDegradedGroups:       "degraded_groups",
	MetricLostGroups:           "lost_groups",
	MetricSparePoolFree:        "spare_pool_free",
	MetricAliveDisks:           "alive_disks",
	MetricSlowDisks:            "slow_disks",
	MetricSuspectDisks:         "suspect_disks",
	MetricUserLoadShare:        "user_load_share",
	MetricThrottleMBps:         "throttle_mbps",
	MetricWindowHours:          "rebuild_window_hours",
	MetricQueueWaitHours:       "rebuild_queue_wait_hours",
	MetricTransferHours:        "rebuild_transfer_hours",
	MetricRetryWaitHours:       "rebuild_retry_wait_hours",
	MetricHedgeOverlapHours:    "rebuild_hedge_overlap_hours",
	MetricDetectWaitHours:      "rebuild_detect_wait_hours",
	MetricDegradedLatency:      "degraded_read_latency_ms",
	MetricPostmortemWindow:     "postmortem_window_hours",
	MetricBlameTransfer:        "blame_transfer_fraction",
	MetricBlameDetect:          "blame_detect_fraction",
	MetricBlameStretch:         "blame_stretch_fraction",
}

// String returns the metric's exposition name.
func (n Name) String() string { return names[n] }

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
