package experiment

import (
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/report"
)

// fig4Groups are the six series of Figure 4.
var fig4Groups = values("group size", "%d GB", []int64{1, 5, 10, 25, 50, 100},
	func(c *core.Config, g int64) { c.GroupBytes = gb(g) })

// fig4Latencies sweeps the x-axis samples (minutes), labelled with
// format. Both panels sweep the same points, so the second one to run
// reads them from mcCache.
func fig4Latencies(format string) axis {
	return values("latency (min)", format, []float64{0, 1, 5, 10, 30, 60},
		func(c *core.Config, m float64) { c.DetectionLatencyHours = m / 60 })
}

// runFig4a plots P(loss) versus detection latency per group size.
func runFig4a(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	t, err := opts.grid("fig4a", "Figure 4(a): P(data loss) vs detection latency",
		opts.baseConfig(), fig4Groups, fig4Latencies("%gmin"), lossPct)
	if err != nil {
		return nil, err
	}
	t.AddNote("two-way mirroring with FARM; runs=%d per point, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: smaller groups are more latency-sensitive (§3.3)")
	return []*report.Table{t}, nil
}

// runFig4b re-expresses the same sweep against latency/recovery-time,
// the paper's collapsing ratio: detection latency divided by the time to
// rebuild one group at the recovery bandwidth.
func runFig4b(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	ratio := column{"ratio", func(cfg core.Config, _ core.Result) string {
		return report.F(cfg.DetectionLatencyHours / disk.RebuildHours(cfg.GroupBytes, cfg.RecoveryMBps))
	}}
	t, err := opts.sweep("fig4b", "Figure 4(b): P(data loss) vs latency/recovery-time ratio",
		opts.baseConfig(), []axis{fig4Groups, fig4Latencies("%g")}, ratio, column{"P(loss)", lossPct})
	if err != nil {
		return nil, err
	}
	t.AddNote("expected shape: points with equal ratio have similar P(loss) across group sizes")
	t.AddNote("two-way mirroring with FARM; runs=%d per point, scale=%.3g", opts.Runs, opts.Scale)
	return []*report.Table{t}, nil
}
