package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rng"
)

// fig6GroupSizes are the three panels of Figure 6 / columns of Table 3.
var fig6GroupSizes = []int64{gb(1), gb(10), gb(50)}

// fig6SampleSalt isolates the disk-sampling stream of Figure 6's
// ten-drive panel from the simulation streams derived from the same base
// seed (registered with farmlint's cross-package salt registry).
const fig6SampleSalt = 0x6f19

// fig6Config builds the paper's utilization testbed: 1000 one-terabyte
// drives filled to 40% (primary plus mirror copies), two-way mirroring
// with FARM. That corresponds to 200 TB of user data.
func fig6Config(opts Options, groupBytes int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.GroupBytes = groupBytes
	opts.setData(&cfg, float64(200*disk.TB))
	cfg.CollectUtilization = true
	cfg.Seed = opts.BaseSeed
	return cfg
}

// fig6Run simulates one trajectory per group size and returns the
// utilization snapshots.
func fig6Run(opts Options, groupBytes int64) (core.RunResult, error) {
	cfg, err := opts.patch(fig6Config(opts, groupBytes))
	if err != nil {
		return core.RunResult{}, err
	}
	s, err := core.NewSimulator(cfg)
	if err != nil {
		return core.RunResult{}, err
	}
	return s.Run(opts.BaseSeed)
}

// runFig6 samples ten random drives and reports their load at build time
// and at the six-year horizon; failed drives show zero, surviving drives
// show the growth contributed by FARM's distributed recovery.
func runFig6(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	var tables []*report.Table
	for _, groupBytes := range fig6GroupSizes {
		res, err := fig6Run(opts, groupBytes)
		if err != nil {
			return nil, err
		}
		// Sample ten of the original drives deterministically.
		r := rng.New(opts.BaseSeed ^ fig6SampleSalt)
		sample := r.SampleK(len(res.InitialUsedBytes), 10)
		t := report.NewTable(
			fmt.Sprintf("Figure 6: utilization of 10 random disks, group size %s", fmtGB(groupBytes)),
			"disk ID", "initial (GB)", "after 6 years (GB)")
		for _, id := range sample {
			t.AddRow(fmt.Sprintf("%d", id),
				report.GB(res.InitialUsedBytes[id]),
				report.GB(res.FinalUsedBytes[id]))
		}
		t.AddNote("%d drives total; failed drives carry no load (paper's disk 3)", res.Disks)
		opts.logf("fig6 group=%s disks=%d failures=%d", fmtGB(groupBytes), res.Disks, res.DiskFailures)
		tables = append(tables, t)
	}
	return tables, nil
}

// runTable3 reports mean and standard deviation of per-slot utilization at
// build time and after six years, per group size — over the original drive
// population, counting failed drives as zero, as the paper plots them.
func runTable3(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	t := report.NewTable("Table 3: disk utilization statistics (GB)",
		"group size", "initial mean", "initial stddev",
		"6y mean (surviving)", "6y stddev (surviving)")
	for _, groupBytes := range fig6GroupSizes {
		res, err := fig6Run(opts, groupBytes)
		if err != nil {
			return nil, err
		}
		// Initial stats cover the whole population; six-year stats cover
		// the surviving drives (failed drives carry no load, and their
		// zeros would swamp the spread FARM's recovery actually causes).
		var init, final metrics.Welford
		for i, b := range res.InitialUsedBytes {
			init.Add(float64(b) / float64(disk.GB))
			if res.FinalUsedBytes[i] > 0 {
				final.Add(float64(res.FinalUsedBytes[i]) / float64(disk.GB))
			}
		}
		t.AddRow(fmtGB(groupBytes),
			report.F(init.Mean()), report.F(init.StdDev()),
			report.F(final.Mean()), report.F(final.StdDev()))
	}
	t.AddNote("expected shape: stddev grows with group size and with age (§3.5)")
	t.AddNote("scale=%.3g of the paper's 1000-drive testbed", opts.Scale)
	return []*report.Table{t}, nil
}
