package faults

import (
	"math"
	"strings"
	"testing"
)

// TestFailSlowValidate is the table-driven NaN/Inf/range check for the
// gray-failure configuration, including the field-distinct messages.
func TestFailSlowValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	cases := []struct {
		name string
		c    FailSlowConfig
		want string
	}{
		{"zero", FailSlowConfig{}, ""},
		{"typical", FailSlowConfig{OnsetRatePerDiskHour: 2e-6, SlowFactor: 4, CrawlProb: 0.2}, ""},
		{"nan-rate", FailSlowConfig{OnsetRatePerDiskHour: nan}, "FailSlow.OnsetRatePerDiskHour is NaN"},
		{"inf-factor", FailSlowConfig{SlowFactor: inf}, "FailSlow.SlowFactor is infinite"},
		{"nan-crawl", FailSlowConfig{CrawlProb: nan}, "FailSlow.CrawlProb is NaN"},
		{"nan-recovery", FailSlowConfig{RecoveryMeanHours: nan}, "FailSlow.RecoveryMeanHours is NaN"},
		{"inf-burst-rate", FailSlowConfig{SlowBurstsPerYear: inf}, "FailSlow.SlowBurstsPerYear is infinite"},
		{"nan-burst-size", FailSlowConfig{SlowBurstMeanSize: nan}, "FailSlow.SlowBurstMeanSize is NaN"},
		{"neg-rate", FailSlowConfig{OnsetRatePerDiskHour: -1}, "negative fail-slow onset rate"},
		{"factor-below-1", FailSlowConfig{SlowFactor: 0.5}, "factor must exceed 1"},
		{"crawl-range", FailSlowConfig{CrawlProb: 1.5}, "crawl probability"},
		{"neg-recovery", FailSlowConfig{RecoveryMeanHours: -2}, "negative fail-slow recovery mean"},
		{"neg-burst-rate", FailSlowConfig{SlowBurstsPerYear: -1}, "negative slow-burst rate"},
		{"neg-burst-size", FailSlowConfig{SlowBurstMeanSize: -1}, "negative slow-burst size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
			// The enclosing fault config must surface the same error.
			if err2 := (Config{FailSlow: tc.c}).Validate(); err2 == nil ||
				err2.Error() != err.Error() {
				t.Fatalf("Config.Validate gave %v, want %v", err2, err)
			}
		})
	}
}

// TestConfigValidateNonFinite: every float field of the fault config
// rejects NaN and ±Inf with a message naming the field.
func TestConfigValidateNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		c    Config
		want string
	}{
		{Config{LSERatePerDiskHour: nan}, "faults: LSERatePerDiskHour is NaN"},
		{Config{ScrubIntervalHours: math.Inf(1)}, "faults: ScrubIntervalHours is infinite"},
		{Config{BurstsPerYear: nan}, "faults: BurstsPerYear is NaN"},
		{Config{BurstMeanSize: nan}, "faults: BurstMeanSize is NaN"},
		{Config{TransientReadProb: nan}, "faults: TransientReadProb is NaN"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v does not contain %q", err, tc.want)
		}
	}
}

// TestFailSlowDefaults: enabling any process fills the documented
// defaults; the zero config passes through untouched.
func TestFailSlowDefaults(t *testing.T) {
	c := Config{FailSlow: FailSlowConfig{OnsetRatePerDiskHour: 1e-6, SlowBurstsPerYear: 2}}.withDefaults()
	fs := c.FailSlow
	if fs.SlowFactor != 4 || fs.CrawlProb != 0.2 || fs.SlowBurstMeanSize != 8 {
		t.Fatalf("defaults not filled: %+v", fs)
	}
	var zero FailSlowConfig
	if zero.withDefaults() != zero {
		t.Fatal("zero fail-slow config must pass through unchanged")
	}
	if zero.Enabled() {
		t.Fatal("zero fail-slow config reads enabled")
	}
	if !(Config{FailSlow: FailSlowConfig{SlowBurstsPerYear: 1}}).Enabled() {
		t.Fatal("slow-bursts alone must enable the fault layer")
	}
}

// TestFailSlowStreamIsolation: consuming fail-slow draws must not
// perturb the main fault stream (LSE gaps, burst draws, read probes) —
// the determinism contract that keeps a zero fail-slow config
// byte-identical.
func TestFailSlowStreamIsolation(t *testing.T) {
	cfg := Config{
		LSERatePerDiskHour: 1e-5,
		BurstsPerYear:      2,
		TransientReadProb:  0.01,
		FailSlow: FailSlowConfig{
			OnsetRatePerDiskHour: 1e-4,
			RecoveryMeanHours:    100,
			SlowBurstsPerYear:    5,
		},
	}
	a, err := NewInjector(cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	// b consumes a pile of fail-slow draws; a consumes none.
	for i := 0; i < 257; i++ {
		b.NextSlowOnsetGap()
		b.DrawSlowSeverity()
		b.DrawSlowRecovery()
		b.NextSlowBurstGap()
		b.SlowBurstSize()
		b.SlowBurstDelay()
	}
	for i := 0; i < 64; i++ {
		if ga, gb := a.NextLSEGap(), b.NextLSEGap(); ga != gb {
			t.Fatalf("LSE stream diverged at draw %d: %v != %v", i, ga, gb)
		}
		if ga, gb := a.NextBurstGap(), b.NextBurstGap(); ga != gb {
			t.Fatalf("burst stream diverged at draw %d: %v != %v", i, ga, gb)
		}
		if oa, ob := a.ProbeRead(0, 1, 2), b.ProbeRead(0, 1, 2); oa != ob {
			t.Fatalf("probe stream diverged at draw %d: %v != %v", i, oa, ob)
		}
	}
}

// TestFailSlowDrawsDeterministic: two injectors with the same seed
// produce identical fail-slow sequences; a different seed diverges.
func TestFailSlowDrawsDeterministic(t *testing.T) {
	cfg := Config{FailSlow: FailSlowConfig{
		OnsetRatePerDiskHour: 1e-5,
		SlowFactor:           4,
		CrawlProb:            0.3,
		RecoveryMeanHours:    50,
		SlowBurstsPerYear:    3,
		SlowBurstMeanSize:    6,
	}}
	draw := func(seed uint64) []float64 {
		in, err := NewInjector(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 100; i++ {
			out = append(out, in.NextSlowOnsetGap(), in.DrawSlowSeverity(),
				in.NextSlowBurstGap(), float64(in.SlowBurstSize()), in.SlowBurstDelay())
			if h, ok := in.DrawSlowRecovery(); ok {
				out = append(out, h)
			}
		}
		return out
	}
	a, b, c := draw(99), draw(99), draw(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed draws diverged at %d", i)
		}
	}
	same := len(a) == len(c)
	if same {
		same = false
		for i := range a {
			if a[i] != c[i] {
				same = true // diverged somewhere, as it must
				break
			}
		}
		if !same {
			t.Fatal("different seeds produced identical fail-slow sequences")
		}
	}
}

// TestSeverityLadder: a vanishing crawl probability always yields x k
// (zero would take the 0.2 default), probability 1 always yields x k^2;
// disabled onset and recovery read as such.
func TestSeverityLadder(t *testing.T) {
	mk := func(crawl float64) *Injector {
		in, err := NewInjector(Config{FailSlow: FailSlowConfig{
			OnsetRatePerDiskHour: 1e-6, SlowFactor: 5, CrawlProb: crawl}}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	slow := mk(1e-300)
	for i := 0; i < 32; i++ {
		if got := slow.DrawSlowSeverity(); got != 5 {
			t.Fatalf("crawl~0 severity %v, want 5", got)
		}
	}
	crawl := mk(1)
	for i := 0; i < 32; i++ {
		if got := crawl.DrawSlowSeverity(); got != 25 {
			t.Fatalf("crawl=1 severity %v, want 25", got)
		}
	}
	if g := slow.NextSlowOnsetGap(); math.IsInf(g, 1) || g <= 0 {
		t.Fatalf("onset gap %v, want positive finite", g)
	}
	off, err := NewInjector(Config{LSERatePerDiskHour: 1e-9}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g := off.NextSlowOnsetGap(); !math.IsInf(g, 1) {
		t.Fatalf("disabled onset gap %v, want +Inf", g)
	}
	if g := off.NextSlowBurstGap(); !math.IsInf(g, 1) {
		t.Fatalf("disabled slow-burst gap %v, want +Inf", g)
	}
	if _, ok := off.DrawSlowRecovery(); ok {
		t.Fatal("permanent degradation drew a recovery time")
	}
}

// TestSampleSlowVictims: distinct indices in range, deterministic per
// seed.
func TestSampleSlowVictims(t *testing.T) {
	in, err := NewInjector(Config{FailSlow: FailSlowConfig{SlowBurstsPerYear: 1}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	v := in.SampleSlowVictims(50, 8)
	if len(v) != 8 {
		t.Fatalf("drew %d victims, want 8", len(v))
	}
	seen := map[int]bool{}
	for _, id := range v {
		if id < 0 || id >= 50 || seen[id] {
			t.Fatalf("bad victim set %v", v)
		}
		seen[id] = true
	}
}
