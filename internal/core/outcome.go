package core

import (
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The outcome table: one row per per-run outcome, naming its registry
// counter (or none), the RunResult field it reads, and the rule that
// folds it into a Monte Carlo Result. Result.add and the horizon export
// both walk this table, so a counter is written once during the run and
// never copied by hand afterwards.

// foldRule says how one outcome folds into a Result.
type foldRule uint8

const (
	foldNone       foldRule = iota // not aggregated
	foldAlways                     // Welford over every run
	foldIfRebuilt                  // Welford over runs that rebuilt a block
	foldIfDegraded                 // Welford over runs that sampled a degraded read
	foldIfPositive                 // Welford over runs where the value itself is positive
	foldGB                         // Welford over every run, bytes scaled to GB
	foldCount                      // counts runs with a positive value into RedirectionRate
)

// tally and welford shorten the table rows below.
type (
	tally   = obs.Tally
	welford = metrics.Welford
)

// outcome is one row of the table. Counter rows read a tally field
// through n; derived-float rows (n nil) read a horizon float through v.
type outcome struct {
	metric obs.Name                 // registry counter, empty when not exported
	n      func(*tally) int64       // the tally field
	v      func(*RunResult) float64 // the derived float, when n is nil
	fold   foldRule
	to     func(*Result) *welford // the aggregate, for the Welford rules
}

var outcomes = [...]outcome{
	{metric: obs.MetricDataLossGroups, n: func(t *tally) int64 { return int64(t.LostGroups) }, fold: foldAlways, to: func(r *Result) *welford { return &r.LostGroups }},
	{metric: obs.MetricDiskFailures, n: func(t *tally) int64 { return int64(t.DiskFailures) }, fold: foldAlways, to: func(r *Result) *welford { return &r.DiskFailures }},
	{metric: obs.MetricBlocksRebuilt, n: func(t *tally) int64 { return int64(t.BlocksRebuilt) }, fold: foldAlways, to: func(r *Result) *welford { return &r.BlocksRebuilt }},
	{metric: obs.MetricRebuildsDropped, n: func(t *tally) int64 { return int64(t.DroppedRebuilds) }},
	{metric: obs.MetricRedirections, n: func(t *tally) int64 { return int64(t.Redirections) }, fold: foldCount},
	{metric: obs.MetricSparesUsed, n: func(t *tally) int64 { return int64(t.SparesUsed) }},
	{metric: obs.MetricBatchesAdded, n: func(t *tally) int64 { return int64(t.BatchesAdded) }, fold: foldAlways, to: func(r *Result) *welford { return &r.BatchesAdded }},
	{metric: obs.MetricDisksAdded, n: func(t *tally) int64 { return int64(t.DisksAdded) }},
	{n: func(t *tally) int64 { return t.MigratedBytes }, fold: foldAlways, to: func(r *Result) *welford { return &r.MigratedBytes }},
	{metric: obs.MetricPredicted, n: func(t *tally) int64 { return int64(t.PredictedFailures) }, fold: foldAlways, to: func(r *Result) *welford { return &r.Predicted }},
	{metric: obs.MetricDrainedBlocks, n: func(t *tally) int64 { return int64(t.DrainedBlocks) }, fold: foldAlways, to: func(r *Result) *welford { return &r.DrainedBlocks }},
	{metric: obs.MetricLSEInjected, n: func(t *tally) int64 { return int64(t.LSEInjected) }, fold: foldAlways, to: func(r *Result) *welford { return &r.LSEInjected }},
	{metric: obs.MetricLSEDetected, n: func(t *tally) int64 { return int64(t.LSEDetected) }, fold: foldAlways, to: func(r *Result) *welford { return &r.LSEDetected }},
	{metric: obs.MetricScrubFound, n: func(t *tally) int64 { return int64(t.ScrubFound) }, fold: foldAlways, to: func(r *Result) *welford { return &r.ScrubFound }},
	{metric: obs.MetricRetries, n: func(t *tally) int64 { return int64(t.RebuildRetries) }, fold: foldAlways, to: func(r *Result) *welford { return &r.RebuildRetries }},
	{metric: obs.MetricTransientFaults, n: func(t *tally) int64 { return int64(t.TransientFaults) }},
	{metric: obs.MetricResourcings, n: func(t *tally) int64 { return int64(t.Resourcings) }, fold: foldAlways, to: func(r *Result) *welford { return &r.Resourcings }},
	{metric: obs.MetricBursts, n: func(t *tally) int64 { return int64(t.Bursts) }, fold: foldAlways, to: func(r *Result) *welford { return &r.Bursts }},
	{metric: obs.MetricBurstKills, n: func(t *tally) int64 { return int64(t.BurstKills) }},
	{metric: obs.MetricSpareWaits, n: func(t *tally) int64 { return int64(t.QueuedSpareJobs) }, fold: foldAlways, to: func(r *Result) *welford { return &r.QueuedSpareJobs }},
	{metric: obs.MetricFailSlowOnsets, n: func(t *tally) int64 { return int64(t.FailSlowOnsets) }, fold: foldAlways, to: func(r *Result) *welford { return &r.FailSlowOnsets }},
	{metric: obs.MetricFailSlowRecovers, n: func(t *tally) int64 { return int64(t.FailSlowRecoveries) }},
	{metric: obs.MetricSlowBursts, n: func(t *tally) int64 { return int64(t.SlowBursts) }},
	{metric: obs.MetricSlowFlagged, n: func(t *tally) int64 { return int64(t.SlowFlagged) }},
	{metric: obs.MetricSlowEvicted, n: func(t *tally) int64 { return int64(t.SlowEvicted) }, fold: foldAlways, to: func(r *Result) *welford { return &r.SlowEvicted }},
	{metric: obs.MetricHedges, n: func(t *tally) int64 { return int64(t.Hedges) }, fold: foldAlways, to: func(r *Result) *welford { return &r.Hedges }},
	{metric: obs.MetricHedgeWins, n: func(t *tally) int64 { return int64(t.HedgeWins) }, fold: foldAlways, to: func(r *Result) *welford { return &r.HedgeWins }},
	{metric: obs.MetricTimeouts, n: func(t *tally) int64 { return int64(t.RebuildTimeouts) }, fold: foldAlways, to: func(r *Result) *welford { return &r.RebuildTimeouts }},
	{metric: obs.MetricSwitchFails, n: func(t *tally) int64 { return int64(t.SwitchFails) }, fold: foldAlways, to: func(r *Result) *welford { return &r.SwitchFails }},
	{metric: obs.MetricRackPowerEvents, n: func(t *tally) int64 { return int64(t.RackPowerEvents) }},
	{metric: obs.MetricPartitions, n: func(t *tally) int64 { return int64(t.Partitions) }, fold: foldAlways, to: func(r *Result) *welford { return &r.Partitions }},
	{metric: obs.MetricPartitionHeals, n: func(t *tally) int64 { return int64(t.PartitionHeals) }},
	{metric: obs.MetricFalseDeadRacks, n: func(t *tally) int64 { return int64(t.FalseDeadRacks) }, fold: foldAlways, to: func(r *Result) *welford { return &r.FalseDeadRacks }},
	{metric: obs.MetricFalseDeadDisks, n: func(t *tally) int64 { return int64(t.FalseDeadDisks) }, fold: foldAlways, to: func(r *Result) *welford { return &r.FalseDeadDisks }},
	{metric: obs.MetricParkedTransfers, n: func(t *tally) int64 { return int64(t.ParkedTransfers) }, fold: foldAlways, to: func(r *Result) *welford { return &r.ParkedTransfers }},
	{metric: obs.MetricCrossRackTransfers, n: func(t *tally) int64 { return int64(t.CrossRackTransfers) }, fold: foldAlways, to: func(r *Result) *welford { return &r.CrossRackTransfers }},
	{metric: obs.MetricCrossRackBytes, n: func(t *tally) int64 { return t.CrossRackBytes }, fold: foldGB, to: func(r *Result) *welford { return &r.CrossRackGB }},
	{metric: obs.MetricDemandBursts, n: func(t *tally) int64 { return int64(t.DemandBursts) }, fold: foldAlways, to: func(r *Result) *welford { return &r.DemandBursts }},
	{metric: obs.MetricDegradedReads, n: func(t *tally) int64 { return int64(t.DegradedReads) }, fold: foldAlways, to: func(r *Result) *welford { return &r.DegradedReads }},
	{metric: obs.MetricThrottleSteps, n: func(t *tally) int64 { return int64(t.ThrottleSteps) }, fold: foldAlways, to: func(r *Result) *welford { return &r.ThrottleSteps }},
	{metric: obs.MetricDrainsPlanned, n: func(t *tally) int64 { return int64(t.PlannedDrains) }, fold: foldAlways, to: func(r *Result) *welford { return &r.PlannedDrains }},
	{metric: obs.MetricUpgradeWins, n: func(t *tally) int64 { return int64(t.UpgradeWindows) }, fold: foldAlways, to: func(r *Result) *welford { return &r.UpgradeWindows }},
	{n: func(t *tally) int64 { return int64(t.FencedParks) }, fold: foldAlways, to: func(r *Result) *welford { return &r.FencedParks }},
	{metric: obs.MetricGrowthBatches, n: func(t *tally) int64 { return int64(t.GrowthBatches) }, fold: foldAlways, to: func(r *Result) *welford { return &r.GrowthBatches }},
	{metric: obs.MetricGrowthDisks, n: func(t *tally) int64 { return int64(t.GrowthDisksAdded) }, fold: foldAlways, to: func(r *Result) *welford { return &r.GrowthDisksAdded }},

	// Derived floats. RecoveryDiskHours and DegradedReadMeanMs are not
	// aggregated and have no row.
	{v: func(x *RunResult) float64 { return x.MeanWindowHours }, fold: foldIfRebuilt, to: func(r *Result) *welford { return &r.WindowHours }},
	{v: func(x *RunResult) float64 { return x.MaxWindowHours }, fold: foldIfRebuilt, to: func(r *Result) *welford { return &r.MaxWindowHours }},
	{v: func(x *RunResult) float64 { return x.WindowP50Hours }, fold: foldIfRebuilt, to: func(r *Result) *welford { return &r.WindowP50Hours }},
	{v: func(x *RunResult) float64 { return x.WindowP99Hours }, fold: foldIfRebuilt, to: func(r *Result) *welford { return &r.WindowP99Hours }},
	{v: func(x *RunResult) float64 { return x.DegradedReadP50Ms }, fold: foldIfDegraded, to: func(r *Result) *welford { return &r.DegradedReadP50Ms }},
	{v: func(x *RunResult) float64 { return x.DegradedReadP99Ms }, fold: foldIfDegraded, to: func(r *Result) *welford { return &r.DegradedReadP99Ms }},
	{v: func(x *RunResult) float64 { return x.DegradedReadMaxMs }, fold: foldIfDegraded, to: func(r *Result) *welford { return &r.DegradedReadMaxMs }},
	{v: func(x *RunResult) float64 { return x.HealthyReadP99Ms }, fold: foldIfDegraded, to: func(r *Result) *welford { return &r.HealthyReadP99Ms }},
	{v: func(x *RunResult) float64 { return x.ThrottleMeanMBps }, fold: foldIfPositive, to: func(r *Result) *welford { return &r.ThrottleMeanMBps }},
}

// value reads the row's outcome from one run.
func (o *outcome) value(run *RunResult) float64 {
	if o.n != nil {
		return float64(o.n(&run.Tally))
	}
	return o.v(run)
}

// add folds one run into the aggregate.
func (r *Result) add(run *RunResult) {
	r.Runs++
	r.lossCounts.Add(run.DataLoss)
	for i := range outcomes {
		o := &outcomes[i]
		x := o.value(run)
		switch o.fold {
		case foldAlways:
		case foldIfRebuilt:
			if run.BlocksRebuilt <= 0 {
				continue
			}
		case foldIfDegraded:
			if run.DegradedReads <= 0 {
				continue
			}
		case foldIfPositive:
			if x <= 0 {
				continue
			}
		case foldGB:
			x /= 1e9
		case foldCount:
			if x > 0 {
				r.RedirectionRate++ // converted to a rate in finish
			}
			continue
		default:
			continue
		}
		o.to(r).Add(x)
	}
	r.Disks = run.Disks
}

// exportHorizon writes the finished run into reg: every exported row's
// counter is added (not set, so an observer reused across runs
// accumulates), and the gauges latch the horizon state.
func (st *runState) exportHorizon(reg *obs.Registry) {
	for i := range outcomes {
		if o := &outcomes[i]; len(o.metric) > 0 {
			reg.Counter(o.metric).Add(uint64(o.n(&st.res.Tally)))
		}
	}
	s := st.snapshot(st.cfg.SimHours)
	reg.Gauge(obs.MetricActiveRebuilds).Set(float64(s.ActiveRebuilds))
	reg.Gauge(obs.MetricQueuedRebuilds).Set(float64(s.QueuedTransfers))
	reg.Gauge(obs.MetricBusyDisks).Set(float64(s.BusyDisks))
	reg.Gauge(obs.MetricRecoveryMBps).Set(s.RecoveryMBps)
	reg.Gauge(obs.MetricDegradedGroups).Set(float64(s.DegradedGroups))
	reg.Gauge(obs.MetricLostGroups).Set(float64(s.LostGroups))
	reg.Gauge(obs.MetricSparePoolFree).Set(float64(s.SparePoolFree))
	reg.Gauge(obs.MetricAliveDisks).Set(float64(s.AliveDisks))
	reg.Gauge(obs.MetricSlowDisks).Set(float64(s.SlowDisks))
	reg.Gauge(obs.MetricSuspectDisks).Set(float64(s.SuspectDisks))
	reg.Gauge(obs.MetricThrottleMBps).Set(st.res.ThrottleMeanMBps)
	share := reg.Gauge(obs.MetricUserLoadShare)
	if st.demand != nil {
		share.Set(st.demand.FleetShare(st.cfg.SimHours))
	}
}
