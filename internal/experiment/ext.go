package experiment

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "ext-adaptive",
		Title: "Extension: workload-adaptive recovery bandwidth (§2.4) vs " +
			"the fixed 20% reservation",
		Cost: "moderate",
		Run:  runExtAdaptive,
	})
}

// runExtAdaptive goes beyond the paper's figures: §2.4 observes that
// recovery bandwidth "fluctuates with the intensity of user requests,
// especially if we exploit system idle time", but the evaluation pins it
// at a fixed reservation. This experiment quantifies the idea with the
// idle throttle policy: a diurnal user load leaves recovery the idle
// bandwidth at night, shortening windows of vulnerability, with the
// biggest effect on the traditional engine whose windows are long enough
// to span load changes.
func runExtAdaptive(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	t := report.NewTable("Extension: fixed vs workload-adaptive recovery bandwidth",
		"engine", "bandwidth model", "mean MB/s", "P(data loss)", "mean window (h)")
	for _, farm := range []bool{true, false} {
		engine := "spare"
		if farm {
			engine = "FARM"
		}
		for _, adaptive := range []bool{false, true} {
			cfg := opts.baseConfig()
			cfg.GroupBytes = gb(5)
			cfg.UseFARM = farm
			name := "fixed 16 MB/s"
			if adaptive {
				cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyIdle, FloorMBps: cfg.RecoveryMBps}
				name = "diurnal idle-time"
			}
			res, err := opts.monteCarlo(cfg)
			if err != nil {
				return nil, err
			}
			policy, err := cfg.ThrottlePolicy()
			if err != nil {
				return nil, err
			}
			t.AddRow(engine, name,
				fmt.Sprintf("%.1f", workload.MeanRecoveryMBps(policy)),
				report.Pct(res.PLoss),
				report.F(res.WindowHours.Mean()))
			opts.logf("ext-adaptive farm=%v adaptive=%v ploss=%.3f", farm, adaptive, res.PLoss)
		}
	}
	t.AddNote("5 GB groups, two-way mirroring; runs=%d, scale=%.3g", opts.Runs, opts.Scale)
	t.AddNote("expected shape: adaptive bandwidth mainly helps the spare-disk engine,")
	t.AddNote("echoing Figure 5 — FARM's windows are already short (§3.4)")
	return []*report.Table{t}, nil
}
