package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// registryGolden renders the exported metric catalogue of the observed
// scenarios: the full-observer storm registry at seeds 3 and 11, the
// everything-on forensics storm (spare engine, racks, network faults,
// demand, throttle, maintenance) at seed 3, and the merged master of the
// 12-run telemetry campaign. Each section opens with a JSON header line.
func registryGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	single := func(label string, cfg Config, seed uint64) {
		ob := fullObserver()
		cfg.Obs = ob
		s, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(seed); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "{\"section\":%q,\"seed\":%d}\n", label, seed)
		if err := ob.Registry.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	single("obs-storm", obsStormConfig(), 3)
	single("obs-storm", obsStormConfig(), 11)
	single("forensics-storm", forensicsStormConfig(), 3)

	hub := obs.NewCampaign()
	if _, err := MonteCarlo(obsStormConfig(), MonteCarloOptions{
		Runs: 12, BaseSeed: 500, Workers: 1, Telemetry: hub,
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "{\"section\":\"campaign\",\"runs\":12,\"base_seed\":500}\n")
	if err := hub.MasterSnapshot(func(r *obs.Registry) error { return r.WriteJSONL(&buf) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistryGolden pins the flight recorder's exported bytes: every
// counter, gauge, and histogram a run or campaign writes, in the sorted
// JSONL exposition. How outcomes reach the registry may change; what the
// registry says may not. Regenerate with
// `go test ./internal/core -run TestRegistryGolden -update` only when an
// intentional change to the metric catalogue is made.
func TestRegistryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden storm runs are moderately expensive")
	}
	got := registryGolden(t)
	path := filepath.Join("testdata", "registry_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("registry drift at line %d:\n want %s\n got  %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("registry drift: %d lines vs %d", len(wl), len(gl))
}
