package recovery

import (
	"math"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// degradedBW wraps the harness cluster's drive states in the per-disk
// bandwidth model, the way the core simulator wires it.
func degradedBW(h *harness, mbps float64) workload.BandwidthModel {
	return workload.Degraded{
		Base: workload.Fixed{MBps: mbps},
		Slowdown: func(id int) float64 {
			if id >= h.cl.NumDisks() {
				return 1
			}
			return h.cl.Disks[id].SlowFactor()
		},
	}
}

// hedgesTracked counts hedge index entries (each hedge appears twice:
// once per endpoint).
func hedgesTracked(b *base) int {
	n := 0
	for _, l := range b.hedgeByDisk {
		n += len(l)
	}
	return n
}

// TestStragglerPolicyValidate is the table-driven NaN/Inf/range check.
func TestStragglerPolicyValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		p    StragglerPolicy
		want string // substring of the error, "" for valid
	}{
		{"zero-disabled", StragglerPolicy{}, ""},
		{"enabled-defaults", StragglerPolicy{Enabled: true}, ""},
		{"nan-alpha", StragglerPolicy{EWMAAlpha: nan}, "EWMAAlpha is NaN"},
		{"inf-threshold", StragglerPolicy{SlowFactorThreshold: inf}, "SlowFactorThreshold is infinite"},
		{"nan-hedge", StragglerPolicy{HedgeAfterMultiple: nan}, "HedgeAfterMultiple is NaN"},
		{"inf-timeout", StragglerPolicy{TimeoutMultiple: inf}, "TimeoutMultiple is infinite"},
		// NaN/Inf are rejected even on a disabled policy: a config
		// carrying them is corrupt regardless.
		{"nan-disabled", StragglerPolicy{Enabled: false, EWMAAlpha: nan}, "EWMAAlpha is NaN"},
		{"alpha-range", StragglerPolicy{Enabled: true, EWMAAlpha: 1.5}, "alpha out of [0,1]"},
		{"threshold-low", StragglerPolicy{Enabled: true, SlowFactorThreshold: 0.5}, "must exceed 1"},
		{"threshold-negative-ok", StragglerPolicy{Enabled: true, SlowFactorThreshold: -1}, ""},
		{"neg-disk-samples", StragglerPolicy{Enabled: true, MinDiskSamples: -1}, "disk-sample floor"},
		{"neg-cluster-samples", StragglerPolicy{Enabled: true, MinClusterSamples: -2}, "cluster-sample floor"},
		{"hedge-low", StragglerPolicy{Enabled: true, HedgeAfterMultiple: 0.5}, "hedge multiple below 1"},
		{"hedge-negative-ok", StragglerPolicy{Enabled: true, HedgeAfterMultiple: -1}, ""},
		{"neg-hedge-cap", StragglerPolicy{Enabled: true, MaxHedgesPerRebuild: -1}, "negative hedge cap"},
		{"timeout-low", StragglerPolicy{Enabled: true, TimeoutMultiple: 0.25}, "timeout multiple below 1"},
		{"timeout-negative-ok", StragglerPolicy{Enabled: true, TimeoutMultiple: -3}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// TestStragglerDefaults: zero fields receive the documented defaults,
// negative fields pass through (mechanism disabled).
func TestStragglerDefaults(t *testing.T) {
	p := StragglerPolicy{Enabled: true, TimeoutMultiple: -1}.withDefaults()
	if p.EWMAAlpha != 0.25 || p.SlowFactorThreshold != 3 || p.MinDiskSamples != 6 ||
		p.MinClusterSamples != 32 || p.HedgeAfterMultiple != 3 || p.MaxHedgesPerRebuild != 1 ||
		p.EvictAfterFlags != 4 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	if p.TimeoutMultiple != -1 {
		t.Fatalf("negative timeout multiple overwritten: %v", p.TimeoutMultiple)
	}
	if !p.hedging() || p.timeouts() {
		t.Fatalf("hedging/timeouts gates wrong: %v %v", p.hedging(), p.timeouts())
	}
	var off StragglerPolicy
	if off.withDefaults() != off {
		t.Fatal("disabled policy must pass through unchanged")
	}
}

// TestDetectorFlagsAndEvicts: a disk consistently far below the cluster
// median is flagged once per streak and evicted after EvictAfterFlags
// consecutive slow scores; eviction is terminal.
func TestDetectorFlagsAndEvicts(t *testing.T) {
	p := StragglerPolicy{Enabled: true}.withDefaults()
	d := newStragglerDetector(p, 8)
	// Warm the cluster median and the healthy disks' estimates.
	for i := 0; i < 10; i++ {
		for id := 0; id < 8; id++ {
			if id == 3 {
				continue
			}
			if f, e := d.observe(id, 16); f || e {
				t.Fatalf("healthy disk %d flagged/evicted during warmup", id)
			}
		}
	}
	// Disk 3 crawls at 1 MB/s: 16/1 far exceeds the 3x threshold.
	var flags, evicts int
	firstFlagAt := -1
	for i := 1; i <= 10; i++ {
		f, e := d.observe(3, 1)
		if f {
			flags++
			if firstFlagAt < 0 {
				firstFlagAt = i
			}
		}
		if e {
			evicts++
			if i != firstFlagAt+p.EvictAfterFlags-1 {
				t.Fatalf("evicted on sample %d, want %d", i, firstFlagAt+p.EvictAfterFlags-1)
			}
		}
	}
	if flags != 1 {
		t.Fatalf("flagged %d times, want once per streak", flags)
	}
	if firstFlagAt != p.MinDiskSamples {
		t.Fatalf("first flag on sample %d, want the disk-sample floor %d", firstFlagAt, p.MinDiskSamples)
	}
	if evicts != 1 {
		t.Fatalf("evicted %d times, want exactly once (terminal)", evicts)
	}
	if mbps, n := d.Estimate(3); n != 10 || mbps > 2 {
		t.Fatalf("estimate = %v over %d samples, want ~1 over 10", mbps, n)
	}
}

// TestDetectorStreakResets: one healthy score breaks a slow streak, so
// intermittent blips never accumulate to an eviction.
func TestDetectorStreakResets(t *testing.T) {
	p := StragglerPolicy{Enabled: true, EWMAAlpha: 1}.withDefaults() // alpha 1: estimate = last sample
	d := newStragglerDetector(p, 8)
	for i := 0; i < 10; i++ {
		for id := 0; id < 8; id++ {
			d.observe(id, 16)
		}
	}
	evicted := false
	for cycle := 0; cycle < 10; cycle++ {
		// Three slow scores (below the eviction threshold of 4)...
		for i := 0; i < p.EvictAfterFlags-1; i++ {
			if _, e := d.observe(3, 1); e {
				evicted = true
			}
		}
		// ...then a healthy one resets the streak.
		d.observe(3, 16)
	}
	if evicted {
		t.Fatal("intermittent slow blips must not evict")
	}
}

// TestHedgeWinsOverSlowSource: rebuilds stuck reading from a crawling
// buddy launch duplicate transfers from a healthy buddy, and the hedge
// finishes first. Every block still rebuilds and no index leaks.
func TestHedgeWinsOverSlowSource(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
	f := NewFARM(h.cl, h.eng, h.sched, degradedBW(h, 16), new(obs.Tally))
	f.SetStraggler(StragglerPolicy{
		Enabled:             true,
		HedgeAfterMultiple:  2,
		TimeoutMultiple:     -1, // isolate hedging
		SlowFactorThreshold: -1, // no detection/eviction
	}, nil)
	// Every disk but 0 and 1 crawls? No: make disk 1 the crawler so only
	// rebuilds sourced from it are stuck.
	h.cl.Disks[1].Slowdown = 64
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("disk 0 held no blocks")
	}
	h.eng.Run()
	st := f.tally
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges=%d wins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
	if st.BlocksRebuilt != len(lost) {
		t.Fatalf("rebuilt %d of %d", st.BlocksRebuilt, len(lost))
	}
	if tracked(&f.base) != 0 || hedgesTracked(&f.base) != 0 {
		t.Fatal("rebuilds or hedges leaked in the indexes")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The hedged rebuilds must beat the crawling source's 64x transfer:
	// the worst window stays well under the crawl duration.
	crawl := 64 * float64(f.blockDuration())
	if f.Stats().Window.Max() >= crawl {
		t.Fatalf("worst window %v did not beat the crawl %v", f.Stats().Window.Max(), crawl)
	}
}

// TestTimeoutReSourcesStuckRebuild: with hedging disabled, the hard
// timeout aborts transfers stuck on the crawling source and the ladder
// re-sources them to a healthy buddy.
func TestTimeoutReSourcesStuckRebuild(t *testing.T) {
	run := func(timeouts float64) *FARM {
		h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
		f := NewFARM(h.cl, h.eng, h.sched, degradedBW(h, 16), new(obs.Tally))
		f.SetStraggler(StragglerPolicy{
			Enabled:             true,
			HedgeAfterMultiple:  -1,
			TimeoutMultiple:     timeouts,
			SlowFactorThreshold: -1,
		}, nil)
		h.cl.Disks[1].Slowdown = 64
		lost := h.failAndDetect(f, 0)
		h.eng.Run()
		st := f.tally
		if st.BlocksRebuilt != len(lost) {
			t.Fatalf("rebuilt %d of %d (timeouts=%v)", st.BlocksRebuilt, len(lost), timeouts)
		}
		if tracked(&f.base) != 0 {
			t.Fatal("rebuilds leaked in the indexes")
		}
		if err := h.cl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	off := run(-1).Stats()
	f := run(3)
	if tl := f.tally; tl.RebuildTimeouts == 0 || tl.Resourcings == 0 {
		t.Fatalf("timeouts=%d resourcings=%d, want both > 0", tl.RebuildTimeouts, tl.Resourcings)
	}
	on := f.Stats()
	// Same placement, same failure: aborting transfers stuck on the
	// crawling source must shrink the mean vulnerability window. (Blocks
	// whose *target* crawls are beyond re-sourcing; the cap leaves them
	// running rather than abandoning them.)
	if on.Window.Mean() >= off.Window.Mean() {
		t.Fatalf("timeout mitigation did not improve mean window: on=%v off=%v",
			on.Window.Mean(), off.Window.Mean())
	}
}

// TestHedgeDroppedWhenEndpointDies: killing a hedge endpoint mid-flight
// drops the duplicate without re-driving work; the primary still
// resolves every block.
func TestHedgeDroppedWhenEndpointDies(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
	f := NewFARM(h.cl, h.eng, h.sched, degradedBW(h, 16), new(obs.Tally))
	f.SetStraggler(StragglerPolicy{
		Enabled:             true,
		HedgeAfterMultiple:  2,
		TimeoutMultiple:     -1,
		SlowFactorThreshold: -1,
	}, nil)
	h.cl.Disks[1].Slowdown = 64
	lost := h.failAndDetect(f, 0)
	for f.tally.Hedges == 0 {
		if !h.eng.Step() {
			t.Fatal("queue drained before any hedge launched")
		}
	}
	// Kill one hedge's target disk.
	victim := -1
	for id, l := range f.hedgeByDisk {
		for _, r := range l {
			if r.hedgeTask != nil && r.hedgeTask.Target == id {
				victim = id
			}
		}
	}
	if victim < 0 {
		t.Fatal("no in-flight hedge target found")
	}
	h.cl.FailDisk(victim, float64(h.eng.Now()))
	f.HandleFailure(h.eng.Now(), victim)
	h.eng.Run()
	st := f.tally
	if st.BlocksRebuilt+st.DroppedRebuilds != len(lost) {
		t.Fatalf("rebuilt %d + dropped %d != lost %d", st.BlocksRebuilt, st.DroppedRebuilds, len(lost))
	}
	if tracked(&f.base) != 0 || hedgesTracked(&f.base) != 0 {
		t.Fatal("rebuilds or hedges leaked in the indexes")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionCallbackFires: with detection enabled, sustained slow
// transfers from one disk fire the eviction callback exactly once for
// that disk.
func TestEvictionCallbackFires(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 120)
	f := NewFARM(h.cl, h.eng, h.sched, degradedBW(h, 16), new(obs.Tally))
	var evicted []int
	f.SetStraggler(StragglerPolicy{
		Enabled:            true,
		HedgeAfterMultiple: -1,
		TimeoutMultiple:    -1,
		MinClusterSamples:  16,
		MinDiskSamples:     3,
		EvictAfterFlags:    2,
	}, func(now sim.Time, id int) { evicted = append(evicted, id) })
	h.cl.Disks[1].Slowdown = 16
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("disk 0 held no blocks")
	}
	h.eng.Run()
	st := f.tally
	if st.SlowFlagged == 0 {
		t.Fatal("crawling disk never flagged")
	}
	if st.SlowEvicted != 1 || len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evictions=%d callback=%v, want exactly disk 1 once", st.SlowEvicted, evicted)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPolicyIsInert: installing the zero policy changes nothing
// against a run that never called SetStraggler — same accumulators and
// same outcome counters, block for block.
func TestDisabledPolicyIsInert(t *testing.T) {
	run := func(install bool) (Stats, obs.Tally) {
		h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 200)
		f := NewFARM(h.cl, h.eng, h.sched, FixedBW(16), new(obs.Tally))
		if install {
			f.SetStraggler(StragglerPolicy{}, nil)
		}
		h.failAndDetect(f, 0)
		h.eng.Run()
		return f.base.stats, *f.tally
	}
	sa, ta := run(false)
	sb, tb := run(true)
	if sa != sb {
		t.Fatalf("zero policy perturbed the accumulators:\n%+v\n%+v", sa, sb)
	}
	if ta != tb {
		t.Fatalf("zero policy perturbed the counters:\n%+v\n%+v", ta, tb)
	}
	if ta.BlocksRebuilt == 0 {
		t.Fatal("no rebuild completed; the comparison checks nothing")
	}
}

// TestEffDurationHealthyIsExact: with a per-disk model present but both
// endpoints healthy, the effective duration must be the base duration
// bit for bit.
func TestEffDurationHealthyIsExact(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	f := NewFARM(h.cl, h.eng, h.sched, degradedBW(h, 16), new(obs.Tally))
	base := sim.Time(disk.RebuildHours(h.cl.BlockBytes, 16))
	if got := f.effDuration(base, 2, 3); got != base {
		t.Fatalf("healthy effDuration %v != base %v", got, base)
	}
	h.cl.Disks[3].Slowdown = 4
	if got := f.effDuration(base, 2, 3); got != sim.Time(float64(base)*4) {
		t.Fatalf("slow-target effDuration %v, want 4x base", got)
	}
}
