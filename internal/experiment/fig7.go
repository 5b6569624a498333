package experiment

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// runFig7 reproduces Figure 7: two-way mirroring with FARM and 10 GB
// groups, injecting a batch of fresh drives each time the configured
// fraction of the original population has failed. The paper examines
// batches after losing 2, 4, 6, or 8% of the drives; with ~10% of drives
// failing over six years, the 2% batch fires about five times and the 8%
// batch about once, so the paper finds no visible cohort effect (§3.6).
func runFig7(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	triggers := values("replacement percent", "%g%%", []float64{2, 4, 6, 8},
		func(c *core.Config, pct float64) { c.ReplaceTrigger = pct / 100 })
	t, err := opts.sweep("fig7", "Figure 7: P(data loss) vs replacement trigger",
		opts.baseConfig(), []axis{triggers},
		column{"P(loss) [95% CI]", func(_ core.Config, r core.Result) string {
			return report.PctCI(r.PLoss, r.PLossLo, r.PLossHi)
		}},
		mean("batches/run", func(r core.Result) metrics.Welford { return r.BatchesAdded }),
		column{"migrated GB/run", func(_ core.Config, r core.Result) string {
			return report.F(r.MigratedBytes.Mean() / float64(1<<30))
		}})
	if err != nil {
		return nil, err
	}
	t.AddNote("two-way mirroring + FARM, 10 GB groups; runs=%d, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: overlapping intervals — no visible cohort effect (§3.6)")
	return []*report.Table{t}, nil
}
