package experiment

import (
	"repro/internal/core"
	"repro/internal/report"
)

// runFig5 reproduces Figure 5: probability of data loss as the disk
// bandwidth devoted to recovery grows, for group sizes 1 GB and 5 GB,
// with and without FARM, at the base 30-second detection latency.
func runFig5(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	series := func(farm bool, groupBytes int64) func(*core.Config) {
		return func(c *core.Config) { c.UseFARM, c.GroupBytes = farm, groupBytes }
	}
	rows := axis{"series", []point{
		{"w/o FARM, 1GB", series(false, gb(1))},
		{"w/o FARM, 5GB", series(false, gb(5))},
		{"with FARM, 1GB", series(true, gb(1))},
		{"with FARM, 5GB", series(true, gb(5))},
	}}
	bandwidths := values("bandwidth", "%gMB/s", []float64{8, 16, 24, 32, 40},
		func(c *core.Config, bw float64) { c.RecoveryMBps = bw })
	base := opts.baseConfig()
	base.DetectionLatencyHours = 30.0 / 3600
	t, err := opts.grid("fig5", "Figure 5: P(data loss) vs recovery bandwidth", base, rows, bandwidths, lossPct)
	if err != nil {
		return nil, err
	}
	t.AddNote("two-way mirroring; runs=%d per point, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: bandwidth helps the non-FARM system far more than FARM (§3.4)")
	return []*report.Table{t}, nil
}
