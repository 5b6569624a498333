package workload

import (
	"math"
	"testing"
)

func TestThrottleDisabledIsNil(t *testing.T) {
	p, err := NewThrottle(ThrottleConfig{}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatal("zero config built a throttle policy")
	}
}

func TestThrottleValidation(t *testing.T) {
	bad := []ThrottleConfig{
		{Policy: "bogus"},
		{Policy: PolicyAIMD, FloorMBps: -1},
		{Policy: PolicyAIMD, FloorMBps: 100, MaxMBps: 50},
		{Policy: PolicyAIMD, MaxMBps: -1},
		{Policy: PolicyAIMD, MaxMBps: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := NewThrottle(cfg, 80); err == nil {
			t.Errorf("bad throttle config %d accepted: %+v", i, cfg)
		}
	}
	for _, policy := range []string{PolicyFixed, PolicyIdle, PolicyAIMD, PolicyDeadline} {
		if _, err := NewThrottle(ThrottleConfig{Policy: policy}, 0); err == nil {
			t.Errorf("%s policy built without a disk bandwidth", policy)
		}
	}
}

// TestAIMDDefaultCeilingCappedAtDrive: the default ceiling is 64 MB/s
// or the drive's bandwidth, whichever is lower; an explicit ceiling is
// left alone.
func TestAIMDDefaultCeilingCappedAtDrive(t *testing.T) {
	for _, tc := range []struct {
		max, disk, want float64
	}{
		{0, 80, 64},
		{0, 40, 40},
		{32, 40, 32},
	} {
		p, err := NewThrottle(ThrottleConfig{Policy: PolicyAIMD, FloorMBps: 8, MaxMBps: tc.max}, tc.disk)
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		for i := 0; i < 40; i++ {
			got = p.RecoveryMBps(float64(i), 0, Backlog{})
		}
		if got != tc.want {
			t.Errorf("MaxMBps %v on a %v MB/s drive: quiet-fleet rate %v, want %v", tc.max, tc.disk, got, tc.want)
		}
	}
}

// TestDefaultsWithinSlowDrive: on a 10 MB/s drive, below the 16 MB/s
// default floor, no policy with default bounds grants more than the
// drive has, whatever the load, clock or backlog.
func TestDefaultsWithinSlowDrive(t *testing.T) {
	const disk = 10
	for _, policy := range []string{PolicyFixed, PolicyIdle, PolicyAIMD, PolicyDeadline} {
		p, err := NewThrottle(ThrottleConfig{Policy: policy}, disk)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			share := float64(i%10) / 10
			backlog := Backlog{PendingBytes: int64(i) << 30, Streams: 1, MTTFHours: 1}
			if got := p.RecoveryMBps(float64(i), share, backlog); got > disk || got <= 0 {
				t.Fatalf("%s: decision %d (share %v) granted %v MB/s on a %v MB/s drive", policy, i, share, got, disk)
			}
		}
	}
}

func TestFixedFloorNeverMoves(t *testing.T) {
	p, err := NewThrottle(ThrottleConfig{Policy: PolicyFixed}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != PolicyFixed {
		t.Fatal("name wrong")
	}
	for _, share := range []float64{0, 0.3, 0.9} {
		if got := p.RecoveryMBps(0, share, Backlog{PendingBytes: 1 << 40, Streams: 1, MTTFHours: 1}); got != 16 {
			t.Fatalf("fixed floor moved to %v at share %v", got, share)
		}
	}
}

func TestAIMDHysteresis(t *testing.T) {
	p, err := NewThrottle(ThrottleConfig{Policy: PolicyAIMD}, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Quiet fleet: additive increase up to the ceiling, then hold.
	var prev float64
	for i := 0; i < 40; i++ {
		cur := p.RecoveryMBps(float64(i), 0.1, Backlog{})
		if cur < prev {
			t.Fatalf("rate decreased under quiet load: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if prev != 64 {
		t.Fatalf("quiet-fleet rate = %v, want ceiling 64", prev)
	}
	// Deadband: the rate must hold exactly — no oscillation.
	for i := 0; i < 10; i++ {
		if got := p.RecoveryMBps(100, 0.45, Backlog{}); got != prev {
			t.Fatalf("rate moved inside the deadband: %v -> %v", prev, got)
		}
	}
	// Busy fleet: multiplicative decrease down to the floor, then hold.
	for i := 0; i < 10; i++ {
		prev = p.RecoveryMBps(200, 0.9, Backlog{})
	}
	if prev != 16 {
		t.Fatalf("busy-fleet rate = %v, want floor 16", prev)
	}
}

func TestDeadlineRefusesStarvation(t *testing.T) {
	p, err := NewThrottle(ThrottleConfig{Policy: PolicyDeadline}, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Crush the AIMD component to its floor first.
	for i := 0; i < 10; i++ {
		p.RecoveryMBps(float64(i), 0.95, Backlog{})
	}
	// Huge backlog, imminent next failure: the Luby bound exceeds the
	// floor, so the policy must rise above it even under peak load.
	b := Backlog{PendingBytes: 4 << 40, Streams: 8, MTTFHours: 2}
	min := MinRepairMBps(b)
	if min <= 16 {
		t.Fatalf("test backlog too small to bind: min = %v", min)
	}
	got := p.RecoveryMBps(100, 0.95, b)
	if got < math.Min(min, 64) {
		t.Fatalf("deadline policy throttled to %v below the repair bound %v", got, min)
	}
	// No backlog: behaves like plain AIMD at its floor.
	if got := p.RecoveryMBps(101, 0.95, Backlog{}); got != 16 {
		t.Fatalf("empty-backlog rate = %v, want floor", got)
	}
}

func TestMinRepairMBps(t *testing.T) {
	if MinRepairMBps(Backlog{}) != 0 {
		t.Fatal("empty backlog has a bound")
	}
	if MinRepairMBps(Backlog{PendingBytes: 1 << 30, MTTFHours: 0}) != 0 {
		t.Fatal("no deadline still bound")
	}
	// 1 GiB across 1 stream with 1 hour to deadline: 1 GiB / 3600 s.
	got := MinRepairMBps(Backlog{PendingBytes: 1 << 30, Streams: 1, MTTFHours: 1})
	want := float64(1<<30) / (3600 * 1e6)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
	// More streams divide the per-stream requirement.
	half := MinRepairMBps(Backlog{PendingBytes: 1 << 30, Streams: 2, MTTFHours: 1})
	if math.Abs(half-want/2) > 1e-12 {
		t.Fatalf("2-stream bound = %v, want %v", half, want/2)
	}
	// Streams <= 0 clamps to 1 rather than dividing by zero.
	if MinRepairMBps(Backlog{PendingBytes: 1 << 30, Streams: 0, MTTFHours: 1}) != got {
		t.Fatal("zero streams not clamped")
	}
}

func TestThrottleDeterministic(t *testing.T) {
	mk := func() ThrottlePolicy {
		p, err := NewThrottle(ThrottleConfig{Policy: PolicyDeadline}, 80)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	shares := []float64{0.1, 0.7, 0.7, 0.2, 0.45, 0.9, 0.1}
	for i, s := range shares {
		bl := Backlog{PendingBytes: int64(i) << 32, Streams: i + 1, MTTFHours: 24}
		if a.RecoveryMBps(float64(i), s, bl) != b.RecoveryMBps(float64(i), s, bl) {
			t.Fatalf("policy trajectories diverged at step %d", i)
		}
	}
}
