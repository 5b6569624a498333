package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/report"
)

// bigFleetPoints are the user-data sizes of the sweep in TB, chosen to
// land on round drive populations under the Table 2 parameters (1 TB
// drives, two-way mirroring, 40% utilization → 5 drives per TB of user
// data): roughly 2k, 10k and 100k disks at Scale = 1.
var bigFleetPoints = []int64{
	400,   // 2k drives: Figure 8's mid-sweep
	2000,  // 10k drives: roughly the paper's full 2 PB system
	20000, // 100k drives: exabyte-era fleet, 10x past Figure 8
}

// runExtBigFleet extends Figure 8's size sweep past the paper's 2 PB
// ceiling. The paper argues (§3.6) that FARM's declustered recovery keeps
// reliability roughly flat as the system grows, because rebuild bandwidth
// scales with the number of survivors. This experiment pushes the claim
// two orders of magnitude further than Figure 8 measured — to a 100k-drive
// fleet — and doubles as the scale proof for the simulator itself: the
// arena event kernel and lazy group materialization keep per-run cost
// proportional to damage, not fleet size, so the 100k point is tractable.
func runExtBigFleet(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	// Unnamed: the drive count each size builds labels the row.
	sizes := values("", "%d TB", bigFleetPoints,
		func(c *core.Config, tb int64) { opts.setData(c, float64(tb*disk.TB)) })
	base := opts.baseConfig()
	base.UseFARM = true
	t, err := opts.sweep("ext-bigfleet", "Extension: FARM reliability from 2k to 100k drives",
		base, []axis{sizes},
		column{"drives", func(_ core.Config, r core.Result) string { return fmt.Sprintf("%d", r.Disks) }},
		column{"user data", func(cfg core.Config, _ core.Result) string {
			return fmt.Sprintf("%d TB", cfg.TotalDataBytes/disk.TB)
		}},
		pLoss,
		column{"95% CI", func(_ core.Config, r core.Result) string {
			return fmt.Sprintf("[%s, %s]", report.Pct(r.PLossLo), report.Pct(r.PLossHi))
		}},
		meanWindow,
		mean("disk failures/run", func(r core.Result) metrics.Welford { return r.DiskFailures }))
	if err != nil {
		return nil, err
	}
	t.AddNote("FARM engine, Table 2 parameters throughout; runs=%d, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: P(loss) grows sub-linearly in fleet size and the")
	t.AddNote("window of vulnerability stays flat — declustering scales (§3.6)")
	return []*report.Table{t}, nil
}
