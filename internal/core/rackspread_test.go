package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/topology"
)

// TestDrainsKeepRackSpread pins that maintenance drains obey the
// cluster's whole target rule: on a rack-aware fleet whose only block
// moves are planned drains (the vintage is too young for any drive to
// fail, and no replacement batch fires), no group ends the run with two
// blocks in one rack.
func TestDrainsKeepRackSpread(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalDataBytes = 20 * disk.TB
	cfg.SimHours = 2 * 8760
	cfg.VintageScale = 1e-4
	cfg.ReplaceTrigger = 0
	cfg.Topology = topology.Config{Racks: 12, RackAware: true}
	cfg.Maintenance = MaintenanceConfig{DrainEveryHours: 720}
	cfg.Seed = 1
	st, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := st.play()
	if res.DiskFailures != 0 {
		t.Fatalf("%d drives failed; the scenario wants drains as the only block moves", res.DiskFailures)
	}
	if res.DrainedBlocks == 0 {
		t.Fatal("no block was drained")
	}
	if err := st.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
