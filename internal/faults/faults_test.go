package faults

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero", Config{}, false},
		{"scrub only", Config{ScrubIntervalHours: 168}, false},
		{"lse", Config{LSERatePerDiskHour: 1e-5}, true},
		{"bursts", Config{BurstsPerYear: 1}, true},
		{"transient", Config{TransientReadProb: 0.01}, true},
		{"spare pool", Config{SparePoolSize: 2}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		LSERatePerDiskHour: 1e-5,
		ScrubIntervalHours: 168,
		BurstsPerYear:      1,
		BurstMeanSize:      3,
		TransientReadProb:  0.05,
		SparePoolSize:      4,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{LSERatePerDiskHour: -1},
		{ScrubIntervalHours: -1},
		{BurstsPerYear: -1},
		{BurstMeanSize: -1},
		{TransientReadProb: -0.1},
		{TransientReadProb: 1}, // must stay below 1: retries could never succeed
		{MaxResourcings: -1},
		{SparePoolSize: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
		if _, err := NewInjector(c, 1); err == nil {
			t.Errorf("NewInjector accepted bad config %d", i)
		}
	}
}

// TestDefaults: the zero policy fields pick up the documented defaults,
// and explicit values are left alone.
func TestDefaults(t *testing.T) {
	in, err := NewInjector(Config{BurstsPerYear: 2, SparePoolSize: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.MaxRetries() != 3 || in.MaxResourcings() != 8 {
		t.Errorf("retry caps = %d/%d, want 3/8", in.MaxRetries(), in.MaxResourcings())
	}
	if c := in.cfg; c.BurstMeanSize != 3 {
		t.Errorf("burst mean size = %g, want 3", c.BurstMeanSize)
	}

	in2, err := NewInjector(Config{MaxResourcings: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in2.MaxResourcings() != 5 {
		t.Errorf("explicit re-sourcing cap overridden: %d", in2.MaxResourcings())
	}
	// Bursts disabled: burst policy fields stay zero.
	if c2 := in2.cfg; c2.BurstMeanSize != 0 {
		t.Errorf("burst defaults applied while bursts disabled: %+v", c2)
	}
}

func TestMarkLatentDedupAndCount(t *testing.T) {
	in, _ := NewInjector(Config{LSERatePerDiskHour: 1e-5}, 1)
	if !in.MarkLatent(3, 10, 1) {
		t.Fatal("first mark rejected")
	}
	if in.MarkLatent(3, 10, 0) {
		t.Fatal("duplicate (disk,group) mark accepted")
	}
	if !in.MarkLatent(3, 11, 0) || !in.MarkLatent(4, 10, 2) {
		t.Fatal("distinct marks rejected")
	}
	if in.LatentCount() != 3 {
		t.Fatalf("LatentCount = %d, want 3", in.LatentCount())
	}
}

func TestDropDisk(t *testing.T) {
	in, _ := NewInjector(Config{LSERatePerDiskHour: 1e-5}, 1)
	in.MarkLatent(1, 10, 0)
	in.MarkLatent(2, 11, 1)
	in.MarkLatent(1, 12, 0)
	if got := in.DropDisk(1); got != 2 {
		t.Fatalf("DropDisk(1) = %d, want 2", got)
	}
	if in.LatentCount() != 1 {
		t.Fatalf("LatentCount = %d, want 1", in.LatentCount())
	}
	if got := in.DropDisk(1); got != 0 {
		t.Fatalf("second DropDisk(1) = %d, want 0", got)
	}
	// The survivor must still be discoverable.
	got := in.TakeLatent()
	if len(got) != 1 || got[0] != (Entry{Disk: 2, Group: 11, Rep: 1}) {
		t.Fatalf("TakeLatent = %+v", got)
	}
}

func TestTakeLatentDrainsInOrder(t *testing.T) {
	in, _ := NewInjector(Config{LSERatePerDiskHour: 1e-5}, 1)
	want := []Entry{
		{Disk: 5, Group: 1, Rep: 0},
		{Disk: 6, Group: 2, Rep: 1},
		{Disk: 7, Group: 3, Rep: 2},
	}
	for _, e := range want {
		in.MarkLatent(e.Disk, e.Group, e.Rep)
	}
	got := in.TakeLatent()
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if in.LatentCount() != 0 {
		t.Fatal("TakeLatent left entries behind")
	}
	if in.TakeLatent() != nil {
		t.Fatal("empty drain should return nil")
	}
}

func TestProbeReadOutcomes(t *testing.T) {
	// No transient probability: outcomes are purely the latent lookup.
	in, _ := NewInjector(Config{LSERatePerDiskHour: 1e-5}, 1)
	in.MarkLatent(2, 7, 1)
	var discovered []Entry
	in.SetDiscoveryHandler(func(now sim.Time, diskID, group, rep int) {
		discovered = append(discovered, Entry{Disk: diskID, Group: group, Rep: rep})
	})
	if got := in.ProbeRead(0, 2, 8); got != ReadOK {
		t.Fatalf("clean read = %v, want ok", got)
	}
	if got := in.ProbeRead(1, 2, 7); got != ReadLatent {
		t.Fatalf("latent read = %v, want latent", got)
	}
	if len(discovered) != 1 || discovered[0] != (Entry{Disk: 2, Group: 7, Rep: 1}) {
		t.Fatalf("discovery handler saw %+v", discovered)
	}
	// The hit consumed the entry: a second read is clean.
	if got := in.ProbeRead(2, 2, 7); got != ReadOK {
		t.Fatalf("re-read = %v, want ok", got)
	}
	if in.LatentCount() != 0 {
		t.Fatal("latent entry not consumed by discovery")
	}
}

func TestProbeReadTransientRate(t *testing.T) {
	in, _ := NewInjector(Config{TransientReadProb: 0.25}, 99)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if in.ProbeRead(0, 0, 0) == ReadTransient {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("transient rate = %.3f, want ~0.25", rate)
	}
}

func TestRetryBackoffBounds(t *testing.T) {
	in, _ := NewInjector(Config{}, 7)
	for attempt := 0; attempt <= 8; attempt++ {
		// 0.05 h doubling per attempt, capped at 1 h.
		nominal := 0.05 * math.Pow(2, math.Max(0, float64(attempt-1)))
		if nominal > 1 {
			nominal = 1
		}
		for i := 0; i < 50; i++ {
			d := float64(in.RetryBackoff(attempt))
			if d < 0.75*nominal-1e-12 || d > 1.25*nominal+1e-12 {
				t.Fatalf("attempt %d backoff %g outside ±25%% of %g", attempt, d, nominal)
			}
		}
	}
}

func TestBurstDraws(t *testing.T) {
	in, _ := NewInjector(Config{BurstsPerYear: 2}, 11)
	for i := 0; i < 1000; i++ {
		if s := in.BurstSize(); s < 1 {
			t.Fatalf("burst size %d < 1", s)
		}
		if d := in.BurstDelay(); d < 0 || d >= burstSpanHours {
			t.Fatalf("burst delay %g outside [0, %g)", d, float64(burstSpanHours))
		}
		if g := in.NextBurstGap(); g < 0 || math.IsInf(g, 1) {
			t.Fatalf("burst gap %g", g)
		}
	}
	// Mean size ≈ configured mean (3 by default).
	sum := 0
	const n = 5000
	for i := 0; i < n; i++ {
		sum += in.BurstSize()
	}
	if mean := float64(sum) / n; math.Abs(mean-3) > 0.2 {
		t.Fatalf("mean burst size %.2f, want ~3", mean)
	}
}

func TestDisabledProcessesReturnInf(t *testing.T) {
	in, _ := NewInjector(Config{TransientReadProb: 0.1}, 1)
	if g := in.NextLSEGap(); !math.IsInf(g, 1) {
		t.Fatalf("LSE gap with rate 0 = %g, want +Inf", g)
	}
	if g := in.NextBurstGap(); !math.IsInf(g, 1) {
		t.Fatalf("burst gap with rate 0 = %g, want +Inf", g)
	}
}

func TestSampleVictimsDistinct(t *testing.T) {
	in, _ := NewInjector(Config{BurstsPerYear: 1}, 3)
	for trial := 0; trial < 200; trial++ {
		got := in.SampleVictims(10, 4)
		if len(got) != 4 {
			t.Fatalf("sampled %d, want 4", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 10 {
				t.Fatalf("victim %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate victim %d in %v", v, got)
			}
			seen[v] = true
		}
	}
}

// TestDeterminism: two injectors with the same seed and config produce
// identical draw sequences; a different seed diverges.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		LSERatePerDiskHour: 1e-4,
		BurstsPerYear:      4,
		TransientReadProb:  0.1,
	}
	a, _ := NewInjector(cfg, 42)
	b, _ := NewInjector(cfg, 42)
	c, _ := NewInjector(cfg, 43)
	same, diff := true, true
	for i := 0; i < 200; i++ {
		ga, gb, gc := a.NextLSEGap(), b.NextLSEGap(), c.NextLSEGap()
		if ga != gb {
			same = false
		}
		if ga != gc {
			diff = false
		}
		if a.ProbeRead(0, 1, 2) != b.ProbeRead(0, 1, 2) {
			same = false
		}
		c.ProbeRead(0, 1, 2)
	}
	if !same {
		t.Fatal("same seed diverged")
	}
	if diff {
		t.Fatal("different seeds produced identical streams")
	}
}
