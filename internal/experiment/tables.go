package experiment

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/report"
)

// runTable1 prints the hazard table the simulator uses and cross-checks
// the implied six-year failure fraction.
func runTable1(opts Options) ([]*report.Table, error) {
	h := disk.Table1()
	t := report.NewTable("Table 1: disk failure rate per 1000 hours",
		"age (months)", "rate (%/1000h)", "implied survival at band end")
	bands := []struct {
		label      string
		start, end float64 // months; end < 0 means open
	}{
		{"0-3", 0, 3},
		{"3-6", 3, 6},
		{"6-12", 6, 12},
		{"12+ (to 6y EODL)", 12, 72},
	}
	for _, b := range bands {
		rate := h.Rate(b.start*disk.HoursPerMonth) * 1000 * 100
		surv := h.Survival(b.end * disk.HoursPerMonth)
		t.AddRow(b.label, fmt.Sprintf("%.2f", rate), fmt.Sprintf("%.4f", surv))
	}
	t.AddNote("six-year failure fraction: %.1f%% (the paper's ~10%% basis for §3.6)",
		100*(1-h.Survival(disk.EODLHours)))
	return []*report.Table{t}, nil
}

// runTable2 prints the base/examined parameter grid actually wired into
// core.DefaultConfig, so drift between code and paper is visible.
func runTable2(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	cfg := opts.baseConfig()
	t := report.NewTable("Table 2: parameters for a petabyte-scale storage system",
		"parameter", "base value", "examined range")
	t.AddRow("total data in the system",
		fmt.Sprintf("%.2g PB", float64(cfg.TotalDataBytes)/float64(disk.PB)), "0.1 - 5 PB")
	t.AddRow("size of a redundancy group", fmtGB(cfg.GroupBytes), "1 - 100 GB")
	t.AddRow("group configuration", cfg.Scheme.String()+" (two-way mirroring)",
		"1/2, 1/3, 2/3, 4/5, 4/6, 8/10")
	t.AddRow("latency to failure detection",
		fmt.Sprintf("%.0f sec", cfg.DetectionLatencyHours*3600), "0 - 3600 sec")
	t.AddRow("disk bandwidth for recovery",
		fmt.Sprintf("%.0f MB/sec", cfg.RecoveryMBps), "8 - 40 MB/sec")
	t.AddRow("disk capacity", fmt.Sprintf("%d TB", cfg.DiskCapacityBytes/disk.TB), "-")
	t.AddRow("initial space utilization",
		fmt.Sprintf("%.0f%%", 100*cfg.InitialUtilization), "-")
	t.AddRow("simulated period", fmt.Sprintf("%.0f years", cfg.SimHours/disk.HoursPerYear), "-")
	if opts.Scale != 1 {
		t.AddNote("scaled to %.3g of the paper's system (Options.Scale)", opts.Scale)
	}
	return []*report.Table{t}, nil
}
