package experiment

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/report"
)

// failSlowRegime returns the gray-failure configuration for one sweep
// point: a per-disk onset hazard, a degradation ladder (×factor slow,
// ×factor² crawling with probability 0.2), no spontaneous recovery (the
// pessimistic case — a gray drive stays gray until it dies or is
// evicted), and a yearly correlated slow-burst. A mild transient
// read-fault rate rides along so hedges sometimes lose their race — the
// situation the hard-timeout backstop exists for.
func failSlowRegime(onsetRate, factor float64) faults.Config {
	return faults.Config{
		TransientReadProb: 0.1,
		FailSlow: faults.FailSlowConfig{
			OnsetRatePerDiskHour: onsetRate,
			SlowFactor:           factor,
			CrawlProb:            0.2,
			SlowBurstsPerYear:    1,
			SlowBurstMeanSize:    4,
		},
	}
}

// runExtFailSlow stresses recovery with gray failures the paper's
// fail-stop model cannot express: drives that stay in service but
// deliver a fraction of their bandwidth (Gunawi et al., FAST '18). Two
// tables:
//
//  1. Incidence × slowdown sweep on the FARM engine, mitigation off vs
//     on: a single crawling source or target stretches a rebuild's
//     window of vulnerability by the slowdown factor, and the P99
//     window degrades long before the mean does. With mitigation, stuck
//     rebuilds hedge onto healthy buddies, persistent stragglers are
//     detected by peer comparison and drained out, and the tail
//     recovers most of the healthy baseline.
//  2. FARM vs the traditional spare engine under one elevated regime:
//     declustered recovery hedges around a slow disk for free (any
//     buddy can source, any disk can host), while the spare engine's
//     single rebuild target is a choke point a gray disk can poison.
func runExtFailSlow(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	base := func(onsetRate, factor float64) core.Config {
		cfg := opts.baseConfig()
		cfg.Faults = failSlowRegime(onsetRate, factor)
		// Batch replacement keeps the fleet near size, so an eviction's
		// capacity cost is paid back the way an operator would pay it —
		// otherwise every drained straggler permanently shrinks the
		// declustering pool.
		cfg.ReplaceTrigger = 0.04
		return cfg
	}
	// The straggler layer under test is all defaults: peer-comparison
	// detection (flag at 3× under the cluster median, evict after 4
	// consecutive flags), hedged duplicates at 3× the healthy deadline,
	// hard timeouts at 12×.
	mitigation := axis{"mitigation", []point{
		{"off", nil},
		{"on", func(c *core.Config) { c.Straggler = recovery.StragglerPolicy{Enabled: true} }},
	}}
	p99 := mean("window P99 (h)", func(r core.Result) metrics.Welford { return r.WindowP99Hours })
	hedges := mean("hedges/run", func(r core.Result) metrics.Welford { return r.Hedges })
	evicted := mean("evicted/run", func(r core.Result) metrics.Welford { return r.SlowEvicted })

	onsets := values("onset (/disk/h)", "%.0e", []float64{1e-6, 1e-5},
		func(c *core.Config, rate float64) { c.Faults.FailSlow.OnsetRatePerDiskHour = rate })
	factors := values("slow ×", "%g", []float64{4, 16},
		func(c *core.Config, f float64) { c.Faults.FailSlow.SlowFactor = f })
	t1, err := opts.sweep("ext-failslow", "Extension: rebuild tail and loss under fail-slow disks (FARM)",
		base(0, 0), []axis{onsets, factors, mitigation}, pLoss,
		mean("window P50 (h)", func(r core.Result) metrics.Welford { return r.WindowP50Hours }),
		p99,
		mean("onsets/run", func(r core.Result) metrics.Welford { return r.FailSlowOnsets }),
		hedges, evicted)
	if err != nil {
		return nil, err
	}
	t1.AddNote("runs=%d, scale=%.3g; onset 1e-6/disk/h ≈ 1%%/drive/year (FAST '18);", opts.Runs, opts.Scale)
	t1.AddNote("degradation is permanent until eviction; crawl (×factor²) probability 0.2;")
	t1.AddNote("transient read faults at p=0.1 and batch replacement at 4%% enabled throughout")
	t1.AddNote("expected shape: P99 window scales with the slow factor when mitigation")
	t1.AddNote("is off and recovers toward the healthy baseline when it is on")

	t2, err := opts.sweep("ext-failslow", "Extension: hedged recovery, FARM vs spare, under elevated gray failure",
		base(1e-5, 8), []axis{engines, mitigation}, pLoss, p99, hedges,
		mean("hedge wins/run", func(r core.Result) metrics.Welford { return r.HedgeWins }),
		mean("timeouts/run", func(r core.Result) metrics.Welford { return r.RebuildTimeouts }),
		evicted)
	if err != nil {
		return nil, err
	}
	t2.AddNote("onset 1e-5/disk/h, slow ×8 (crawl ×64 at p=0.2), yearly slow-bursts;")
	t2.AddNote("mitigation = peer-comparison detection + hedging at 3× + timeouts at 12×")
	t2.AddNote("+ eviction through the suspect/drain path after 4 consecutive flags")

	return []*report.Table{t1, t2}, nil
}
