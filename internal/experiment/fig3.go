package experiment

import (
	"repro/internal/core"
	"repro/internal/redundancy"
	"repro/internal/report"
)

// schemes sweeps the six redundancy configurations of Figures 3 and 8.
var schemes = values("scheme", "%v", redundancy.PaperSchemes(),
	func(c *core.Config, s redundancy.Scheme) { c.Scheme = s })

// runFig3 reproduces Figure 3: six redundancy configurations (1/2, 1/3,
// 2/3, 4/5, 4/6, 8/10), each simulated with FARM and with the traditional
// single-spare scheme, at redundancy group sizes 1 GB and 5 GB, with
// failure detection latency assumed zero. Its advantage column divides
// two data points of one row, so it walks the schemes × engines points
// itself rather than declaring a sweep.
func runFig3(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	var tables []*report.Table
	for i, groupBytes := range []int64{gb(1), gb(5)} {
		panel := string(rune('a' + i))
		t := report.NewTable("Figure 3("+panel+"): probability of data loss, group size "+fmtGB(groupBytes),
			"scheme", "with FARM", "w/o FARM", "FARM advantage")
		cfg := opts.baseConfig()
		cfg.GroupBytes = groupBytes
		cfg.DetectionLatencyHours = 0
		var ploss []float64 // FARM, then spare
		err := opts.each("fig3"+panel, cfg, []axis{schemes, engines},
			func(labels []string, _ core.Config, res core.Result) {
				if ploss = append(ploss, res.PLoss); len(ploss) < 2 {
					return
				}
				adv := "-"
				if ploss[0] > 0 {
					adv = report.F(ploss[1]/ploss[0]) + "x"
				} else if ploss[1] > 0 {
					adv = "inf"
				}
				t.AddRow(labels[0], report.Pct(ploss[0]), report.Pct(ploss[1]), adv)
				ploss = ploss[:0]
			})
		if err != nil {
			return nil, err
		}
		t.AddNote("runs=%d per point, scale=%.3g, six simulated years", opts.Runs, opts.Scale)
		tables = append(tables, t)
	}
	return tables, nil
}
