package experiment

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/workload"
)

// elasticTopo is the fabric every ext-elastic data point runs on: 12
// racks, rack-aware placement, a 4:1 oversubscribed spine.
func elasticTopo() topology.Config {
	return topology.Config{
		Racks:                 12,
		RackAware:             true,
		UplinkMBps:            1250,
		OversubscriptionRatio: 4,
	}
}

// quietDemand is light, burst-free foreground load; stormDemand layers
// daily burst episodes on a heavier diurnal base. MaxShare 0.7 keeps the
// contention cap from saturating, so policy differences stay visible in
// the latency tail.
func quietDemand() workload.DemandConfig {
	return workload.DemandConfig{BaseShare: 0.15, DiurnalAmplitude: 0.5, MaxShare: 0.7}
}

func stormDemand() workload.DemandConfig {
	return workload.DemandConfig{
		BaseShare:        0.3,
		DiurnalAmplitude: 0.5,
		BurstsPerDay:     1,
		BurstShare:       0.25,
		RackSkew:         0.3,
		MaxShare:         0.7,
	}
}

// elasticBase is the common system: a hotter vintage and batch
// replacement (so recovery keeps running across the horizon) on the
// oversubscribed fabric.
func elasticBase(opts Options) core.Config {
	cfg := opts.baseConfig()
	cfg.VintageScale = 2
	cfg.ReplaceTrigger = 0.04
	cfg.Topology = elasticTopo()
	return cfg
}

// runExtElastic prices the living fleet: what does recovery cost the
// users, and what do the users cost recovery? Three tables:
//
//  1. Degraded reads under foreground load, FARM vs the spare-disk
//     baseline: every hour a block stays lost, user reads landing on it
//     pay reconstruction latency. FARM's parallel rebuild shortens the
//     windows, so its advantage — already visible in P(loss) — widens
//     into the user-visible latency tail as the load grows.
//  2. The recovery QoS frontier: the paper's fixed 16 MB/s reservation
//     against the adaptive policies. AIMD backs recovery off below the
//     static floor during storms (cheaper degraded reads exactly when
//     the fleet is busiest) and runs far above it at night (shorter
//     windows); deadline-aware AIMD additionally refuses to yield when
//     the rebuild backlog approaches the next expected failure.
//  3. Maintenance windows during storms: planned drains, rolling
//     upgrades (one rack write-fenced at a time), and scheduled vintage
//     growth, each layered over the same storm — planned work must not
//     convert into data loss.
func runExtElastic(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	degradedP99 := mean("degraded p99 (ms)", func(r core.Result) metrics.Welford { return r.DegradedReadP99Ms })

	load := axis{"load", []point{
		{"quiet", func(c *core.Config) { c.Demand = quietDemand() }},
		{"storm", func(c *core.Config) { c.Demand = stormDemand() }},
	}}
	t1, err := opts.sweep("ext-elastic", "Extension: degraded reads under foreground load (FARM vs spare)",
		elasticBase(opts), []axis{engines, load}, pLoss,
		mean("degraded reads/run", func(r core.Result) metrics.Welford { return r.DegradedReads }),
		mean("degraded p50 (ms)", func(r core.Result) metrics.Welford { return r.DegradedReadP50Ms }),
		degradedP99,
		mean("healthy p99 (ms)", func(r core.Result) metrics.Welford { return r.HealthyReadP99Ms }),
		meanWindow)
	if err != nil {
		return nil, err
	}
	t1.AddNote("runs=%d, scale=%.3g; 12 racks, 4:1 oversubscription, vintage x2,", opts.Runs, opts.Scale)
	t1.AddNote("storms add 1 burst episode/day (mean 2 h, +25%% share, rack skew 0.3)")
	t1.AddNote("expected shape: the spare engine's serial rebuild stretches windows, so")
	t1.AddNote("its blocks absorb more degraded reads at a worse tail; the gap widens")
	t1.AddNote("from quiet to storm because contention stretches its windows further")

	storm := elasticBase(opts)
	storm.Demand = stormDemand()
	throttle := func(tc workload.ThrottleConfig) func(*core.Config) {
		return func(c *core.Config) { c.Throttle = tc }
	}
	policies := axis{"policy", []point{
		{"static 16 (paper)", nil},
		{"fixed floor 16", throttle(workload.ThrottleConfig{Policy: workload.PolicyFixed, FloorMBps: 16})},
		{"aimd 8..16 (polite)", throttle(workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 16})},
		{"deadline 8..32", throttle(workload.ThrottleConfig{Policy: workload.PolicyDeadline, FloorMBps: 8, MaxMBps: 32})},
	}}
	// Without a throttle policy recovery runs at the config's static
	// rate, which the throttle mean does not record.
	mbps := column{"recovery MB/s (mean)", func(cfg core.Config, r core.Result) string {
		if !cfg.Throttle.Enabled() {
			return report.F(cfg.RecoveryMBps)
		}
		return report.F(r.ThrottleMeanMBps.Mean())
	}}
	t2, err := opts.sweep("ext-elastic", "Extension: the recovery QoS frontier under storms",
		storm, []axis{policies}, mbps,
		mean("throttle steps/run", func(r core.Result) metrics.Welford { return r.ThrottleSteps }),
		meanWindow, degradedP99, pLoss)
	if err != nil {
		return nil, err
	}
	t2.AddNote("FARM engine, storm demand; AIMD moves in 8..16 MB/s, deadline in 8..32,")
	t2.AddNote("with AIMD hysteresis (decrease above 0.6 fleet share, increase below 0.3)")
	t2.AddNote("expected shape: adaptive policies cut the degraded-read tail (they back")
	t2.AddNote("off during the storms where the tail lives) at equal-or-better P(loss)")
	t2.AddNote("(night-time surplus shortens windows); deadline refuses the back-off")
	t2.AddNote("only when the backlog approaches the next expected failure")

	maint := func(m core.MaintenanceConfig) func(*core.Config) {
		return func(c *core.Config) { c.Maintenance = m }
	}
	plans := axis{"maintenance", []point{
		{"none", nil},
		{"monthly drains", maint(core.MaintenanceConfig{DrainEveryHours: 720, DrainDisks: 2})},
		{"rolling upgrades", maint(core.MaintenanceConfig{UpgradeEveryHours: 168, UpgradeDurationHours: 12})},
		{"semiannual growth", maint(core.MaintenanceConfig{
			GrowEveryHours: 4380, GrowDisks: 8,
			GrowCapacityFactor: 1.25, GrowBandwidthFactor: 1.1, GrowAFRFactor: 1.2})},
		{"all", maint(core.MaintenanceConfig{
			DrainEveryHours: 720, DrainDisks: 2,
			UpgradeEveryHours: 168, UpgradeDurationHours: 12,
			GrowEveryHours: 4380, GrowDisks: 8,
			GrowCapacityFactor: 1.25, GrowBandwidthFactor: 1.1, GrowAFRFactor: 1.2})},
	}}
	t3, err := opts.sweep("ext-elastic", "Extension: maintenance windows during storms",
		storm, []axis{plans}, pLoss,
		mean("fenced parks/run", func(r core.Result) metrics.Welford { return r.FencedParks }),
		mean("planned drains/run", func(r core.Result) metrics.Welford { return r.PlannedDrains }),
		mean("growth disks/run", func(r core.Result) metrics.Welford { return r.GrowthDisksAdded }),
		meanWindow,
		mean("disk failures/run", func(r core.Result) metrics.Welford { return r.DiskFailures }))
	if err != nil {
		return nil, err
	}
	t3.AddNote("FARM engine, storm demand; upgrades hold one rack read-only 12 h/week,")
	t3.AddNote("growth batches compound capacity x1.25, bandwidth x1.1, AFR x1.2")
	t3.AddNote("expected shape: fenced rebuilds park and resume (fenced parks > 0")
	t3.AddNote("without a matching rise in P(loss)); drains retire drives before they")
	t3.AddNote("fail in service; hotter growth vintages raise failures, not loss")

	return []*report.Table{t1, t2, t3}, nil
}
