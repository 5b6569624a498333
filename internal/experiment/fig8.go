package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/report"
)

// runFig8 reproduces Figure 8: probability of data loss as the system
// grows from 0.1 to 5 PB of user data, for all six schemes under FARM,
// with the vintage factor applied to the Table 1 failure rates (1 for
// panel (a), 2 for panel (b)).
func runFig8(opts Options, vintageScale float64) ([]*report.Table, error) {
	opts = opts.withDefaults()
	panel := "a"
	if vintageScale != 1 {
		panel = "b"
	}
	capacities := values("capacity", "%gPB", []float64{0.1, 0.5, 1, 2, 5},
		func(c *core.Config, pb float64) { opts.setData(c, pb*float64(disk.PB)) })
	base := opts.baseConfig()
	base.VintageScale = vintageScale
	t, err := opts.grid("fig8"+panel,
		fmt.Sprintf("Figure 8(%s): P(data loss) vs total capacity (failure rate x%g)", panel, vintageScale),
		base, schemes, capacities, lossPct)
	if err != nil {
		return nil, err
	}
	t.AddNote("FARM, 10 GB groups, 30 s detection; runs=%d, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: ~linear growth with capacity; doubling failure rates more than doubles P(loss)")
	return []*report.Table{t}, nil
}
