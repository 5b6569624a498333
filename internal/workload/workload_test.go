package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// newIdle builds the idle-time policy over the paper's 80 MB/s drive.
func newIdle(t *testing.T, floor float64) ThrottlePolicy {
	t.Helper()
	p, err := NewThrottle(ThrottleConfig{Policy: PolicyIdle, FloorMBps: floor}, 80)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// grantAt asks a clock-only policy (fixed or idle) for its grant at hour
// h; such a policy ignores load and backlog, so both inputs are zero.
func grantAt(p ThrottlePolicy, h float64) float64 { return p.RecoveryMBps(h, 0, Backlog{}) }

// TestNewFixed: the fixed policy grants its floor exactly, at any time
// of day; a negative floor is rejected.
func TestNewFixed(t *testing.T) {
	for _, mbps := range []float64{1, 16, 37.5, 80} {
		p, err := NewThrottle(ThrottleConfig{Policy: PolicyFixed, FloorMBps: mbps}, 80)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{0, 14, 1e6} {
			if got := grantAt(p, h); got != mbps {
				t.Fatalf("fixed %v granted %v at hour %v", mbps, got, h)
			}
		}
		if p.Name() != PolicyFixed {
			t.Fatal("name wrong")
		}
	}
	if _, err := NewThrottle(ThrottleConfig{Policy: PolicyFixed, FloorMBps: -4}, 80); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestDiurnalPeakAndTrough(t *testing.T) {
	d := newIdle(t, 16)
	// At the peak hour, users take 80% → recovery gets max(16, 16) = 16.
	if got := grantAt(d, 14); math.Abs(got-16) > 1e-9 {
		t.Fatalf("peak recovery = %v, want 16", got)
	}
	// Twelve hours later, user share is zero → recovery gets the disk.
	if got := grantAt(d, 2); math.Abs(got-80) > 1e-9 {
		t.Fatalf("trough recovery = %v, want 80", got)
	}
	if d.Name() != PolicyIdle {
		t.Fatal("name wrong")
	}
}

func TestDiurnalPeriodicity(t *testing.T) {
	d := newIdle(t, 16)
	for h := 0.0; h < 24; h += 0.5 {
		a := grantAt(d, h)
		b := grantAt(d, h+24*365)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("not 24h-periodic at hour %v: %v vs %v", h, a, b)
		}
	}
}

func TestDiurnalUserShareRange(t *testing.T) {
	for h := 0.0; h < 48; h += 0.25 {
		s := idleLoad.diurnal(h)
		if s < 0 || s > 0.8+1e-12 {
			t.Fatalf("user share %v out of [0, 0.8] at hour %v", s, h)
		}
	}
	if got := idleLoad.diurnal(14); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("peak share = %v, want 0.8", got)
	}
}

// TestIdleSharesDemandCurve: the idle schedule and Demand's base load
// are one curve. A burst-free, unskewed, uncapped Demand with the idle
// load's parameters reports exactly the share the idle policy yields to.
func TestIdleSharesDemandCurve(t *testing.T) {
	d, err := NewDemand(DemandConfig{BaseShare: 0.4, DiurnalAmplitude: 1, MaxShare: 1}, 240, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := newIdle(t, 16)
	for h := 0.0; h < 48; h += 0.1 {
		share := d.FleetShare(h)
		if share != idleLoad.diurnal(h) {
			t.Fatalf("hour %v: demand share %v, idle load %v", h, share, idleLoad.diurnal(h))
		}
		want := math.Max(16, 80*(1-share))
		if got := grantAt(p, h); got != want {
			t.Fatalf("hour %v: idle grant %v, want max(16, 80·(1-%v)) = %v", h, got, share, want)
		}
	}
}

func TestDiurnalFloorRespected(t *testing.T) {
	// A floor above the peak-hour free bandwidth binds around the peak:
	// recovery never drops below it, and sits exactly on it at 14:00.
	d := newIdle(t, 40)
	for h := 0.0; h < 24; h += 0.1 {
		if grantAt(d, h) < 40 {
			t.Fatalf("recovery fell below floor at hour %v", h)
		}
	}
	if got := grantAt(d, 14); got != 40 {
		t.Fatalf("peak recovery = %v, want the floor 40", got)
	}
}

func TestMeanRecoveryMBps(t *testing.T) {
	// Closed form: the trapezoid rule integrates a constant exactly, so
	// the mean of the fixed policy must equal its floor to the last ULP.
	for _, mbps := range []float64{1, 16, 16.25, 37.5, 80} {
		p, err := NewThrottle(ThrottleConfig{Policy: PolicyFixed, FloorMBps: mbps}, 80)
		if err != nil {
			t.Fatal(err)
		}
		if got := MeanRecoveryMBps(p); got != mbps {
			t.Fatalf("fixed %v mean = %v, want exact", mbps, got)
		}
	}
	// Closed form: a raised cosine over a full period averages to its
	// midline. With the floor below the trough the idle grant is exactly
	// 80·(1 - 0.4 - 0.4·cos), whose day-mean is 80·(1 - 0.4) = 48; the
	// trapezoid on a periodic function is spectrally accurate, so the
	// numeric mean must agree to float noise.
	if got := MeanRecoveryMBps(newIdle(t, 1e-9)); math.Abs(got-48) > 1e-6 {
		t.Fatalf("cosine mean = %v, want 48", got)
	}
	mean := MeanRecoveryMBps(newIdle(t, 16))
	// Average user share is 0.4, so mean free bandwidth is 48; the floor
	// only binds at the peak instant, lifting the mean by float noise.
	if mean < 48-1 || mean > 56 {
		t.Fatalf("idle mean = %v, want ~48-52", mean)
	}
	// The adaptive schedule must beat the paper's fixed reservation.
	if mean <= 16 {
		t.Fatal("idle schedule no better than fixed floor")
	}
}

// Property: the idle grant is always within [floor, disk] at any time.
func TestQuickDiurnalBounds(t *testing.T) {
	f := func(hour float64, floor uint8) bool {
		fl := float64(floor%80) + 1
		p, err := NewThrottle(ThrottleConfig{Policy: PolicyIdle, FloorMBps: fl}, 80)
		if err != nil {
			return false
		}
		got := grantAt(p, math.Abs(hour))
		return got >= fl && got <= 80+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeHourHandled(t *testing.T) {
	if got := idleLoad.diurnal(-10); got < 0 || got > 0.8 {
		t.Fatalf("negative hour share = %v", got)
	}
	// -10 h is 14:00 of the previous day: the peak.
	if got := grantAt(newIdle(t, 16), -10); math.Abs(got-16) > 1e-9 {
		t.Fatalf("grant at -10 h = %v, want the peak-hour 16", got)
	}
}
