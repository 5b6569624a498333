package faults

import (
	"math"
	"strings"
	"testing"
)

// TestNetworkValidateRejectsNonFinite pins field-distinct NaN/±Inf
// messages on every network-fault float.
func TestNetworkValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*NetworkFaultConfig, float64)
	}{
		{"SwitchFailsPerYear", func(c *NetworkFaultConfig, v float64) { c.SwitchFailsPerYear = v }},
		{"PowerEventsPerYear", func(c *NetworkFaultConfig, v float64) { c.PowerEventsPerYear = v }},
		{"PowerRestoreMeanHours", func(c *NetworkFaultConfig, v float64) { c.PowerRestoreMeanHours = v }},
		{"PartitionsPerYear", func(c *NetworkFaultConfig, v float64) { c.PartitionsPerYear = v }},
		{"PartitionMeanHours", func(c *NetworkFaultConfig, v float64) { c.PartitionMeanHours = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var cfg NetworkFaultConfig
			f.set(&cfg, v)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("%s=%v accepted", f.name, v)
			}
			if !strings.Contains(err.Error(), f.name) {
				t.Fatalf("%s=%v: message %q does not name the field", f.name, v, err)
			}
		}
	}
}

// TestNetworkValidateRanges pins the distinct range messages and that
// the composite faults.Config.Validate reaches them.
func TestNetworkValidateRanges(t *testing.T) {
	cases := []struct {
		mut  func(*NetworkFaultConfig)
		want string
	}{
		{func(c *NetworkFaultConfig) { c.SwitchFailsPerYear = -1 }, "negative switch-failure rate"},
		{func(c *NetworkFaultConfig) { c.PowerEventsPerYear = -1 }, "negative power-event rate"},
		{func(c *NetworkFaultConfig) { c.PowerRestoreMeanHours = -1 }, "negative power-restore mean"},
		{func(c *NetworkFaultConfig) { c.PartitionsPerYear = -1 }, "negative partition rate"},
		{func(c *NetworkFaultConfig) { c.PartitionMeanHours = -1 }, "negative partition heal mean"},
	}
	for _, tc := range cases {
		var net NetworkFaultConfig
		tc.mut(&net)
		err := net.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("got %v, want substring %q", err, tc.want)
		}
		full := Config{Network: net}
		if err := full.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("composite Validate: got %v, want substring %q", err, tc.want)
		}
	}
}

// TestNetworkDefaultsAndEnabled pins the dwell defaults and the
// Enabled wiring through the composite config.
func TestNetworkDefaultsAndEnabled(t *testing.T) {
	if (NetworkFaultConfig{}).Enabled() {
		t.Fatal("zero network config reports enabled")
	}
	if !(Config{Network: NetworkFaultConfig{PartitionsPerYear: 1}}).Enabled() {
		t.Fatal("partitions alone do not enable the injector")
	}
	in, err := NewInjector(Config{Network: NetworkFaultConfig{PowerEventsPerYear: 2, PartitionsPerYear: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := in.cfg.Network
	if got.PowerRestoreMeanHours != 4 || got.PartitionMeanHours != 1 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

// TestNetworkStreamIsolated pins that enabling network faults leaves
// the other fault streams byte-identical: the same LSE gap sequence
// with and without network processes configured.
func TestNetworkStreamIsolated(t *testing.T) {
	base := Config{LSERatePerDiskHour: 1e-5, BurstsPerYear: 2}
	withNet := base
	withNet.Network = NetworkFaultConfig{SwitchFailsPerYear: 4, PartitionsPerYear: 12}
	a, err := NewInjector(base, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(withNet, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		// Interleave network draws on b: they must not perturb its main
		// stream.
		if i%3 == 0 {
			b.NextSwitchFailGap()
			b.DrawPartitionHeal()
			b.PickRack(16)
		}
		if ga, gb := a.NextLSEGap(), b.NextLSEGap(); ga != gb {
			t.Fatalf("draw %d: LSE gap diverged %v vs %v", i, ga, gb)
		}
		if ga, gb := a.NextBurstGap(), b.NextBurstGap(); ga != gb {
			t.Fatalf("draw %d: burst gap diverged %v vs %v", i, ga, gb)
		}
	}
}

// TestNetworkDisabledGapsInfinite pins the +Inf sentinels.
func TestNetworkDisabledGapsInfinite(t *testing.T) {
	in, err := NewInjector(Config{LSERatePerDiskHour: 1e-6}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, gap := range map[string]float64{
		"switch":    in.NextSwitchFailGap(),
		"power":     in.NextPowerEventGap(),
		"partition": in.NextPartitionGap(),
	} {
		if !math.IsInf(gap, 1) {
			t.Fatalf("%s gap = %v with process disabled, want +Inf", name, gap)
		}
	}
}
