package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/redundancy"
	"repro/internal/topology"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfigs are the scenarios the no-drift gate covers: every code
// path the fault-injection subsystem threads through (both engines,
// replacement, S.M.A.R.T., adaptive bandwidth under both engines) with fault injection left
// at its zero value. The golden file was generated from the pre-faults
// tree; any behavioural drift with injection disabled fails the test.
func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.TotalDataBytes = 10 * disk.TB
		cfg.GroupBytes = 10 * disk.GB
		return cfg
	}
	farm := base()
	spare := base()
	spare.UseFARM = false
	replace := base()
	replace.ReplaceTrigger = 0.04
	smartCfg := base()
	smartCfg.SmartAccuracy = 0.5
	smartCfg.SmartLeadHours = 24
	adaptive := base()
	adaptive.Throttle = workload.ThrottleConfig{Policy: workload.PolicyIdle}
	spareAdaptive := base()
	spareAdaptive.UseFARM = false
	spareAdaptive.Throttle = workload.ThrottleConfig{Policy: workload.PolicyIdle}
	erasure := base()
	erasure.Scheme = redundancy.Scheme{M: 4, N: 6}
	erasure.VintageScale = 2
	// Fault injection enabled with the fail-slow sub-config left at its
	// zero value and the straggler policy disabled: pins that the gray-
	// failure subsystem, dormant, cannot perturb the PR-2 fault paths.
	zeroSlow := base()
	zeroSlow.VintageScale = 2
	zeroSlow.Faults.LSERatePerDiskHour = 1e-5
	zeroSlow.Faults.ScrubIntervalHours = 720
	zeroSlow.Faults.BurstsPerYear = 1
	zeroSlow.Faults.TransientReadProb = 0.05
	// Fault injection and replacement enabled with the topology/network
	// sub-config left at its zero value: pins that the network-fault-domain
	// subsystem, dormant, cannot perturb any pre-existing path (flat
	// placement, flat transfer rates, no unreachability checks).
	nonet := base()
	nonet.VintageScale = 2
	nonet.ReplaceTrigger = 0.04
	nonet.Faults.LSERatePerDiskHour = 1e-5
	nonet.Faults.BurstsPerYear = 2
	nonet.Faults.TransientReadProb = 0.05
	// Fault injection, replacement, and a configured rack fabric with the
	// foreground-traffic, recovery-QoS, and maintenance sub-configs left
	// at their zero values: pins that the living-fleet subsystem, dormant,
	// cannot perturb any pre-existing path (no demand contention, no
	// throttle policy, no read-only fences, no planned drains or growth).
	noload := base()
	noload.VintageScale = 2
	noload.ReplaceTrigger = 0.04
	noload.Faults.LSERatePerDiskHour = 1e-5
	noload.Faults.BurstsPerYear = 2
	noload.Faults.TransientReadProb = 0.05
	noload.Topology = topology.Config{
		Racks:                 12,
		RackAware:             true,
		UplinkMBps:            1250,
		OversubscriptionRatio: 4,
		FalseDeadHours:        24,
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"farm-base", farm},
		{"spare-base", spare},
		{"farm-replace", replace},
		{"farm-smart", smartCfg},
		{"farm-adaptive", adaptive},
		{"spare-adaptive", spareAdaptive},
		{"farm-erasure-x2", erasure},
		{"farm-faults-zeroslow", zeroSlow},
		{"farm-faults-nonet", nonet},
		{"farm-faults-noload", noload},
	}
}

// hexF renders a float with exact bits so the comparison is byte-level,
// not approximate.
func hexF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenLines renders the pre-faults observable surface of a scenario:
// a single run plus a small Monte Carlo campaign. Only fields that
// existed before the fault subsystem are included, so the golden file
// pins "no drift when injection is off" rather than the new counters.
func goldenLines(t *testing.T, name string, cfg Config) []string {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []string
	for _, seed := range []uint64{1, 7, 42} {
		r, err := sim.Run(seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		out = append(out, fmt.Sprintf(
			"%s run seed=%d loss=%v lost=%d fail=%d rebuilt=%d redir=%d mw=%s xw=%s spares=%d batches=%d added=%d mig=%d rdh=%s pred=%d drained=%d disks=%d",
			name, seed, r.DataLoss, r.LostGroups, r.DiskFailures, r.BlocksRebuilt,
			r.Redirections, hexF(r.MeanWindowHours), hexF(r.MaxWindowHours),
			r.SparesUsed, r.BatchesAdded, r.DisksAdded, r.MigratedBytes,
			hexF(r.RecoveryDiskHours), r.PredictedFailures, r.DrainedBlocks, r.Disks))
	}
	res, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 12, BaseSeed: 100, Workers: 3})
	if err != nil {
		t.Fatalf("%s montecarlo: %v", name, err)
	}
	out = append(out, fmt.Sprintf(
		"%s mc runs=%d ploss=%s lo=%s hi=%s rr=%s lg=%s df=%s wh=%s br=%s mig=%s ba=%s pf=%s db=%s disks=%d",
		name, res.Runs, hexF(res.PLoss), hexF(res.PLossLo), hexF(res.PLossHi),
		hexF(res.RedirectionRate), hexF(res.LostGroups.Mean()),
		hexF(res.DiskFailures.Mean()), hexF(res.WindowHours.Mean()),
		hexF(res.BlocksRebuilt.Mean()), hexF(res.MigratedBytes.Mean()),
		hexF(res.BatchesAdded.Mean()), hexF(res.Predicted.Mean()),
		hexF(res.DrainedBlocks.Mean()), res.Disks))
	return out
}

// TestGoldenNoFaultsDrift verifies that with fault injection disabled
// (the zero faults.Config), every simulator output is byte-identical to
// the pre-fault-subsystem tree for the same seeds. Regenerate with
// `go test ./internal/core -run TestGoldenNoFaultsDrift -update` only
// when an intentional behavioural change is made.
func TestGoldenNoFaultsDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is moderately expensive")
	}
	var lines []string
	for _, sc := range goldenConfigs() {
		lines = append(lines, goldenLines(t, sc.name, sc.cfg)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden_nofaults.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) != got {
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("golden drift at line %d:\n want %s\n got  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("golden drift: %d lines vs %d", len(wl), len(gl))
	}
}
