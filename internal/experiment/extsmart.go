package experiment

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
)

// runExtSmart extends the paper's §2.3 remark — that a S.M.A.R.T.-like
// monitor lets the system avoid unreliable disks — into a quantified
// experiment: with prediction accuracy a and a day of lead time, a
// fraction of failing drives is drained before death, removing those
// failures from the window-of-vulnerability budget entirely.
func runExtSmart(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	accuracy := values("prediction accuracy", "%g%%", []float64{0, 30, 60, 90},
		func(c *core.Config, pct float64) { c.SmartAccuracy = pct / 100 })
	base := opts.baseConfig()
	base.GroupBytes = gb(5)
	base.SmartLeadHours = 24
	t, err := opts.sweep("ext-smart", "Extension: S.M.A.R.T. prediction accuracy vs reliability",
		base, []axis{accuracy}, pLoss,
		mean("predicted/run", func(r core.Result) metrics.Welford { return r.Predicted }),
		mean("drained blocks/run", func(r core.Result) metrics.Welford { return r.DrainedBlocks }),
		mean("reactive rebuilds/run", func(r core.Result) metrics.Welford { return r.BlocksRebuilt }))
	if err != nil {
		return nil, err
	}
	t.AddNote("5 GB groups, two-way mirroring + FARM, 24 h warning lead; runs=%d, scale=%.3g",
		opts.Runs, opts.Scale)
	t.AddNote("expected shape: reactive rebuild volume falls roughly with accuracy;")
	t.AddNote("P(loss) falls because drained drives never open a vulnerability window")
	return []*report.Table{t}, nil
}
