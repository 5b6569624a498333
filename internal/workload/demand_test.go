package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDemandDisabledIsNil(t *testing.T) {
	d, err := NewDemand(DemandConfig{}, 52560, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatal("zero config built a demand model")
	}
}

func TestDemandValidation(t *testing.T) {
	bad := []DemandConfig{
		{BaseShare: -0.1},
		{BaseShare: 1.5},
		{BaseShare: 0.3, DiurnalAmplitude: 2},
		{BurstsPerDay: -1},
		{BurstsPerDay: 2, BurstShare: 1.5},
		{BaseShare: 0.3, RackSkew: 1.1},
		{BaseShare: 0.3, MaxShare: -0.5},
		{BaseShare: math.NaN()},
		{BaseShare: 0.3, BurstShare: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := NewDemand(cfg, 100, 4, 1); err == nil {
			t.Errorf("bad demand config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDemandDeterministic(t *testing.T) {
	cfg := DemandConfig{BaseShare: 0.3, BurstsPerDay: 3, RackSkew: 0.2}
	a, err := NewDemand(cfg, 8760, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewDemand(cfg, 8760, 12, 42)
	if a.Bursts() != b.Bursts() {
		t.Fatalf("burst count drifted: %d vs %d", a.Bursts(), b.Bursts())
	}
	for h := 0.0; h < 8760; h += 13.7 {
		for _, id := range []int{0, 5, 143} {
			if a.Share(h, id) != b.Share(h, id) {
				t.Fatalf("share drifted at h=%v disk=%d", h, id)
			}
		}
	}
	c, _ := NewDemand(cfg, 8760, 12, 43)
	same := true
	for h := 1.0; h < 800; h += 7 {
		if a.Share(h, 0) != c.Share(h, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical demand")
	}
}

func TestDemandShareBounded(t *testing.T) {
	cfg := DemandConfig{BaseShare: 0.5, BurstsPerDay: 12, BurstShare: 0.5, RackSkew: 0.4}
	d, err := NewDemand(cfg, 8760, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	max := d.cfg.MaxShare
	for h := 0.0; h < 8760; h += 3.3 {
		for id := 0; id < 48; id += 7 {
			s := d.Share(h, id)
			if s < 0 || s > max {
				t.Fatalf("share %v out of [0,%v] at h=%v disk=%d", s, max, h, id)
			}
		}
		if fs := d.FleetShare(h); fs < 0 || fs > max {
			t.Fatalf("fleet share %v out of range at h=%v", fs, h)
		}
	}
}

func TestDemandDiurnalShape(t *testing.T) {
	// No bursts, no skew: share must peak at hour 14 and trough twelve
	// hours away, every day.
	d, err := NewDemand(DemandConfig{BaseShare: 0.4}, 240, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	peak := d.Share(14, 0)
	trough := d.Share(2, 0)
	if peak <= trough {
		t.Fatalf("peak %v not above trough %v", peak, trough)
	}
	if math.Abs(d.Share(14, 0)-d.Share(14+24, 0)) > 1e-12 {
		t.Fatal("not 24h-periodic")
	}
	// Mean over a day must be the configured base share.
	sum := 0.0
	const n = 24 * 60
	for i := 0; i < n; i++ {
		sum += d.Share(float64(i)*24/n, 0)
	}
	if mean := sum / n; math.Abs(mean-0.4) > 1e-3 {
		t.Fatalf("day-mean share = %v, want 0.4", mean)
	}
}

func TestDemandBurstsRaiseShare(t *testing.T) {
	base := DemandConfig{BaseShare: 0.2, DiurnalAmplitude: 0.01}
	quiet, err := NewDemand(base, 8760, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	burstCfg := base
	burstCfg.BurstsPerDay = 6
	burstCfg.BurstShare = 0.3
	bursty, _ := NewDemand(burstCfg, 8760, 1, 5)
	if bursty.Bursts() == 0 {
		t.Fatal("no burst episodes drawn")
	}
	// During a burst the share must exceed the quiet model's.
	start, hours, _ := bursty.BurstAt(0)
	mid := start + hours/2
	if bursty.Share(mid, 0) <= quiet.Share(mid, 0) {
		t.Fatalf("burst share %v not above quiet %v", bursty.Share(mid, 0), quiet.Share(mid, 0))
	}
	// Long after the horizon's last burst query still works (binary
	// search at the end of the array).
	_ = bursty.Share(1e6, 0)
}

func TestDemandRackSkewStable(t *testing.T) {
	d, err := NewDemand(DemandConfig{BaseShare: 0.3, RackSkew: 0.5}, 100, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Disks in the same rack see identical shares; across racks they may
	// differ, and the multiplier is time-invariant.
	if d.Share(10, 0) != d.Share(10, 6) {
		t.Fatal("same-rack disks disagree")
	}
	r0 := d.Share(10, 0) / d.Share(50, 0)
	r3 := d.Share(10, 3) / d.Share(50, 3)
	if math.Abs(r0-r3) > 1e-12 {
		t.Fatal("rack skew not time-invariant")
	}
	diff := false
	for rack := 1; rack < 6; rack++ {
		if d.Share(10, rack) != d.Share(10, 0) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("skew drew identical multipliers for all racks")
	}
}

func TestContentionFactor(t *testing.T) {
	if ContentionFactor(0) != 1 || ContentionFactor(-1) != 1 {
		t.Fatal("idle disk stretched")
	}
	if got := ContentionFactor(0.5); math.Abs(got-2) > 1e-12 {
		t.Fatalf("half-loaded factor = %v, want 2", got)
	}
	if got := ContentionFactor(0.99); got != ContentionFactor(2) {
		t.Fatal("overload cap not applied")
	}
	if f := ContentionFactor(0.95); math.IsInf(f, 0) || f <= 0 {
		t.Fatalf("cap factor = %v", f)
	}
}

func TestPoisson(t *testing.T) {
	src := rng.New(123)
	if Poisson(src, 0) != 0 || Poisson(src, -2) != 0 {
		t.Fatal("non-positive mean drew events")
	}
	// Sample mean of a small-λ draw must land near λ.
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += Poisson(src, 2.5)
	}
	if mean := float64(sum) / n; math.Abs(mean-2.5) > 0.1 {
		t.Fatalf("poisson(2.5) sample mean = %v", mean)
	}
	// Large-λ branch: normal approximation, non-negative, near the mean.
	sum = 0
	for i := 0; i < 2000; i++ {
		k := Poisson(src, 100)
		if k < 0 {
			t.Fatal("negative count")
		}
		sum += k
	}
	if mean := float64(sum) / 2000; math.Abs(mean-100) > 2 {
		t.Fatalf("poisson(100) sample mean = %v", mean)
	}
}
