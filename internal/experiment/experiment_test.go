package experiment

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// tinyOpts shrinks every experiment to seconds for the test suite.
func tinyOpts() Options {
	return Options{Runs: 3, BaseSeed: 42, Scale: 0.01}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4a", "fig4b",
		"fig5", "fig6", "table3", "fig7", "fig8a", "fig8b",
		"ext-adaptive", "ext-bigfleet", "ext-elastic", "ext-failslow", "ext-faults", "ext-forensics", "ext-network", "ext-smart"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d is %s, want %s (paper order)", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
}

func TestExperimentMetadata(t *testing.T) {
	for _, e := range All() {
		if e.Title == "" || e.Cost == "" || e.Run == nil {
			t.Errorf("experiment %s missing metadata", e.ID)
		}
	}
}

func TestTable1Static(t *testing.T) {
	e, _ := Lookup("table1")
	tabs, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("table1 shape wrong: %+v", tabs)
	}
	var sb strings.Builder
	if err := tabs[0].WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0.50", "0.35", "0.25", "0.20"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table1 missing rate %s:\n%s", want, sb.String())
		}
	}
}

func TestTable2Static(t *testing.T) {
	e, _ := Lookup("table2")
	tabs, err := e.Run(Options{Runs: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tabs[0].WriteText(&sb)
	for _, want := range []string{"2 PB", "10 GB", "1/2", "30 sec", "16 MB/sec"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table2 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFig6AndTable3Tiny(t *testing.T) {
	opts := tinyOpts()
	e, _ := Lookup("fig6")
	tabs, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("fig6 should emit 3 panels, got %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 || len(tab.Rows) > 10 {
			t.Fatalf("fig6 panel has %d rows, want 1-10", len(tab.Rows))
		}
	}
	e3, _ := Lookup("table3")
	tabs3, err := e3.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs3) != 1 || len(tabs3[0].Rows) != 3 {
		t.Fatal("table3 shape wrong")
	}
}

func TestFig4bRatioColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tinyOpts()
	opts.Runs = 2
	e, _ := Lookup("fig4b")
	tabs, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != len(fig4Groups.points)*len(fig4Latencies("%g").points) {
		t.Fatalf("fig4b has %d rows", len(rows))
	}
	// Zero latency must give ratio 0.
	if rows[0][2] != "0" {
		t.Fatalf("first ratio = %q, want 0", rows[0][2])
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 100 || o.Scale != 1 || o.BaseSeed != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

// TestLivingFleetOverrides pins the farmsim -scenario plumbing:
// Options.Scenario must reach every data point's config, and patch only
// the keys it writes.
func TestLivingFleetOverrides(t *testing.T) {
	opts := tinyOpts().withDefaults()
	cfg := opts.baseConfig()
	plain, err := opts.monteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded := opts
	loaded.Scenario = []byte(`{"Demand":{"BaseShare":0.5}}`)
	res, err := loaded.monteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowHours.Mean() <= plain.WindowHours.Mean() {
		t.Errorf("demand scenario did not stretch windows: %.3f h loaded vs %.3f h idle",
			res.WindowHours.Mean(), plain.WindowHours.Mean())
	}
	maint := opts
	maint.Scenario = []byte(`{"Maintenance":{"DrainEveryHours":720,"DrainDisks":2}}`)
	mres, err := maint.monteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mres.PlannedDrains.Mean() == 0 {
		t.Error("maintenance scenario never planned a drain")
	}

	// A patch merges into the experiment's own sub-config rather than
	// replacing it.
	diurnal := cfg
	diurnal.Demand = quietDemand()
	patched, err := loaded.patch(diurnal)
	if err != nil {
		t.Fatal(err)
	}
	if patched.Demand.BaseShare != 0.5 || patched.Demand.DiurnalAmplitude != diurnal.Demand.DiurnalAmplitude {
		t.Errorf("patch replaced the sub-config: got %+v from %+v", patched.Demand, diurnal.Demand)
	}

	bad := opts
	bad.Scenario = []byte(`{"Demand":{"BaseShre":0.5}}`)
	if _, err := bad.monteCarlo(cfg); err == nil {
		t.Error("a scenario with an unknown key ran")
	}
}

// TestDerivedColumnsReadPatchedConfig: under -scenario, a column derived
// from the config must describe the config that ran, not the one the
// experiment declared before the patch.
func TestDerivedColumnsReadPatchedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	idle, err := workload.NewThrottle(workload.ThrottleConfig{Policy: workload.PolicyIdle, FloorMBps: 4},
		core.DefaultConfig().DiskBandwidthMBps)
	if err != nil {
		t.Fatal(err)
	}
	idleMean := fmt.Sprintf("%.1f", workload.MeanRecoveryMBps(idle))
	for _, tc := range []struct {
		id, scenario string
		table        int
		row          []string // leading cells of the rows checked; nil checks every row
		col          int
		want         string
	}{
		// 1 min of detection over a 1 GB rebuild at 32 MB/s, not the base 16.
		{"fig4b", `{"RecoveryMBps":32}`, 0, []string{"1 GB", "1"}, 2, "1.788"},
		// Without a throttle policy recovery runs at the patched static rate.
		{"ext-elastic", `{"RecoveryMBps":32}`, 1, []string{"static 16 (paper)"}, 1, "32"},
		// Every row ran the patched idle policy.
		{"ext-adaptive", `{"Throttle":{"Policy":"idle","FloorMBps":4}}`, 0, nil, 2, idleMean},
	} {
		t.Run(tc.id, func(t *testing.T) {
			opts := tinyOpts()
			opts.Scenario = []byte(tc.scenario)
			e, _ := Lookup(tc.id)
			tabs, err := e.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, row := range tabs[tc.table].Rows {
				if !slices.Equal(row[:len(tc.row)], tc.row) {
					continue
				}
				checked++
				if row[tc.col] != tc.want {
					t.Errorf("row %q: %s = %q, want %q", row, tabs[tc.table].Columns[tc.col], row[tc.col], tc.want)
				}
			}
			if checked == 0 {
				t.Fatalf("no row starts with %q", tc.row)
			}
		})
	}
}

func TestBaseConfigScaling(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	cfg := o.baseConfig()
	full := Options{Scale: 1}.withDefaults().baseConfig()
	if cfg.TotalDataBytes*2 != full.TotalDataBytes {
		t.Fatalf("scale 0.5 gave %d bytes, want half of %d",
			cfg.TotalDataBytes, full.TotalDataBytes)
	}
	// Scale never shrinks below one group.
	tiny := Options{Scale: 1e-12}.withDefaults().baseConfig()
	if tiny.TotalDataBytes < tiny.GroupBytes {
		t.Fatal("scaled system smaller than one group")
	}
}
