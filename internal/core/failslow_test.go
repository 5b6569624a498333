package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// failSlowStormConfig is a miniature system with gray failures and the
// straggler layer both enabled: a hot vintage keeps rebuilds flowing,
// frequent onsets (×8 slow, ×64 crawl at p=0.4) plant stragglers among
// them, and correlated slow-bursts arrive yearly. Transient read faults
// are mixed in so hedges sometimes lose their race — the only way a
// crawling primary survives to its hard timeout, which the trace gate
// below requires to fire.
func failSlowStormConfig() Config {
	cfg := smallConfig()
	cfg.VintageScale = 6
	cfg.ReplaceTrigger = 0.04
	cfg.Faults.TransientReadProb = 0.25
	cfg.Faults.FailSlow.OnsetRatePerDiskHour = 2e-5
	cfg.Faults.FailSlow.SlowFactor = 8
	cfg.Faults.FailSlow.CrawlProb = 0.4
	cfg.Faults.FailSlow.RecoveryMeanHours = 4000
	cfg.Faults.FailSlow.SlowBurstsPerYear = 1
	cfg.Straggler.Enabled = true
	return cfg
}

// TestCoreConfigValidateNonFinite: every float field of the simulator
// config rejects NaN and ±Inf with a message naming the field, before
// any range check can misclassify it.
func TestCoreConfigValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"bandwidth", func(c *Config) { c.DiskBandwidthMBps = nan }, "core: DiskBandwidthMBps is NaN"},
		{"recovery", func(c *Config) { c.RecoveryMBps = inf }, "core: RecoveryMBps is infinite"},
		{"latency", func(c *Config) { c.DetectionLatencyHours = nan }, "core: DetectionLatencyHours is NaN"},
		{"utilization", func(c *Config) { c.InitialUtilization = nan }, "core: InitialUtilization is NaN"},
		{"horizon", func(c *Config) { c.SimHours = inf }, "core: SimHours is infinite"},
		{"vintage", func(c *Config) { c.VintageScale = nan }, "core: VintageScale is NaN"},
		{"replace", func(c *Config) { c.ReplaceTrigger = nan }, "core: ReplaceTrigger is NaN"},
		{"smart-acc", func(c *Config) { c.SmartAccuracy = nan }, "core: SmartAccuracy is NaN"},
		{"smart-lead", func(c *Config) { c.SmartLeadHours = math.Inf(-1) }, "core: SmartLeadHours is infinite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
			if _, serr := NewSimulator(cfg); serr == nil {
				t.Fatal("NewSimulator accepted a non-finite config")
			}
		})
	}
}

// TestFailSlowStormDeterministic: the full gray-failure storm (onsets,
// recoveries, slow-bursts, hedges, timeouts, evictions) is reproducible
// for a fixed seed and diverges for another.
func TestFailSlowStormDeterministic(t *testing.T) {
	cfg := failSlowStormConfig()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.FailSlowOnsets == 0 {
		t.Fatal("storm produced no fail-slow onsets")
	}
	c, err := sim.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestFailSlowMonteCarloByteIdenticalAcrossWorkers extends the
// reproducibility gate to the gray-failure campaign: every aggregate —
// the new fail-slow and mitigation Welfords included — must be
// bit-identical regardless of worker count. Run under -race this also
// exercises the ordered streaming fold with the new per-run state.
func TestFailSlowMonteCarloByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := failSlowStormConfig()
	const runs = 10
	ref, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FailSlowOnsets.Mean() == 0 {
		t.Fatal("campaign saw no fail-slow onsets; the gate is vacuous")
	}
	for _, workers := range []int{2, 5, 8} {
		got, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Result differs between Workers=1 and Workers=%d:\n%+v\nvs\n%+v",
				workers, ref, got)
		}
	}
}

// TestFailSlowTraceKinds: the gray-failure storm's trace must contain
// every fail-slow and mitigation event kind so downstream tooling
// (farmtrace) can see the new paths, and the trace must stay causal.
func TestFailSlowTraceKinds(t *testing.T) {
	cfg := failSlowStormConfig()
	cfg.Seed = 11
	var events []trace.Event
	cfg.Hook = func(e trace.Event) { events = append(events, e) }
	if _, err := runOnce(cfg); err != nil {
		t.Fatal(err)
	}
	if err := trace.CheckCausality(events); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(events)
	for _, k := range []trace.Kind{
		trace.KindFailSlowOnset, trace.KindFailSlowRecover, trace.KindSlowBurst,
		trace.KindHedge, trace.KindHedgeWin, trace.KindRebuildTimeout,
		trace.KindFailSlowDetect, trace.KindEvictSlow,
	} {
		if sum.Counts[k] == 0 {
			t.Errorf("no %q events in the gray-failure trace", k)
		}
	}
}
