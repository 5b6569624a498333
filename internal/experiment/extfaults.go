package experiment

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/report"
)

// runExtFaults stresses the paper's model with the fault modes its
// evaluation abstracts away. Two tables:
//
//  1. LSE rate × scrub interval → P(data loss): latent sector errors
//     silently consume redundancy between whole-disk failures; periodic
//     scrubbing wins that window back. The paper's whole-disk-only model
//     is the 0-rate row.
//  2. Graceful degradation, FARM vs the traditional engine, under the
//     combined storm: LSEs, correlated failure bursts, transient
//     rebuild-read faults, and (for the spare engine) a finite spare
//     pool. The interesting outputs are the fault-path counters — the
//     system must keep absorbing the faults, not fall over.
func runExtFaults(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()

	const title1 = "Extension: P(data loss) under latent sector errors × scrubbing"
	rates := values("LSE rate (/disk/h)", "%.0e", []float64{1e-5, 1e-4},
		func(c *core.Config, r float64) { c.Faults.LSERatePerDiskHour = r })
	scrubs := axis{"scrub interval", []point{
		{"none", nil},
		{"720 h", func(c *core.Config) { c.Faults.ScrubIntervalHours = 720 }},
		{"168 h", func(c *core.Config) { c.Faults.ScrubIntervalHours = 168 }},
	}}
	cols := []column{pLoss,
		mean("LSEs/run", func(r core.Result) metrics.Welford { return r.LSEInjected }),
		mean("scrub-found/run", func(r core.Result) metrics.Welford { return r.ScrubFound })}
	// The paper's model has nothing to scrub, so it is one row, not three.
	paper := []axis{{rates.name, []point{{"0 (paper)", nil}}}, {scrubs.name, scrubs.points[:1]}}
	t1, err := opts.sweep("ext-faults", title1, opts.baseConfig(), paper, cols...)
	if err != nil {
		return nil, err
	}
	lse, err := opts.sweep("ext-faults", title1, opts.baseConfig(), []axis{rates, scrubs}, cols...)
	if err != nil {
		return nil, err
	}
	t1.Rows = append(t1.Rows, lse.Rows...)
	t1.AddNote("runs=%d, scale=%.3g; the 0-rate row is the paper's whole-disk-only model", opts.Runs, opts.Scale)
	t1.AddNote("expected shape: loss probability rises with the LSE rate and falls")
	t1.AddNote("as scrubbing shortens the latent window")

	storm := opts.baseConfig()
	storm.Faults = faults.Config{
		LSERatePerDiskHour: 1e-5,
		ScrubIntervalHours: 720,
		BurstsPerYear:      1,
		BurstMeanSize:      3,
		TransientReadProb:  0.05,
		SparePoolSize:      4,
	}
	t2, err := opts.sweep("ext-faults", "Extension: graceful degradation under the combined fault storm",
		storm, []axis{engines}, pLoss,
		mean("retries/run", func(r core.Result) metrics.Welford { return r.RebuildRetries }),
		mean("re-sourcings/run", func(r core.Result) metrics.Welford { return r.Resourcings }),
		mean("bursts/run", func(r core.Result) metrics.Welford { return r.Bursts }),
		mean("spare queue waits/run", func(r core.Result) metrics.Welford { return r.QueuedSpareJobs }))
	if err != nil {
		return nil, err
	}
	t2.AddNote("LSEs 1e-5/disk/h, monthly scrub, 1 burst/year (mean 3 kills),")
	t2.AddNote("5%% transient read faults, 4-spare pool with 24 h replenishment;")
	t2.AddNote("the spare engine queues work when the pool runs dry instead of failing")

	return []*report.Table{t1, t2}, nil
}
