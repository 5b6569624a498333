package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// hedgesTracked counts hedge index entries (each hedge appears twice:
// once per endpoint).
func hedgesTracked(b *base) int {
	n := 0
	for _, l := range b.hedgeByDisk.lists {
		n += len(l)
	}
	return n
}

// TestStragglerDefaults: an enabled layer arms each rebuild's hedge at
// 3x and its timeout at 12x the healthy-model duration.
func TestStragglerDefaults(t *testing.T) {
	ref := cluster.BlockRef{Group: 5, Rep: 0}
	h := newHarness(t, redundancy.Scheme{M: 1, N: 3}, 200)
	env := h.env()
	env.Straggler = StragglerPolicy{Enabled: true}
	f := NewFARM(env)
	h.relose(f, ref)
	r := f.groupTargets[ref.Group].rb
	now := h.eng.Now()
	for _, tc := range []struct {
		name     string
		ev       sim.Handle
		multiple float64
	}{{"hedge", r.hedgeEv, 3}, {"timeout", r.timeoutEv, 12}} {
		at, ok := h.eng.EventTime(tc.ev)
		if want := now + sim.Time(float64(r.baseDur)*tc.multiple); !ok || at != want {
			t.Errorf("%s armed at %v (pending %v), want %v", tc.name, at, ok, want)
		}
	}
}

// TestDetectorFlagsAndEvicts: a disk consistently far below the cluster
// median is flagged once per streak and evicted after evictAfterFlags
// consecutive slow scores; eviction is terminal.
func TestDetectorFlagsAndEvicts(t *testing.T) {
	d := newStragglerDetector(8)
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
			if i != firstFlagAt+evictAfterFlags-1 {
				t.Fatalf("evicted on sample %d, want %d", i, firstFlagAt+evictAfterFlags-1)
			}
		}
	}
	if flags != 1 {
		t.Fatalf("flagged %d times, want once per streak", flags)
	}
	if firstFlagAt != minDiskSamples {
		t.Fatalf("first flag on sample %d, want the disk-sample floor %d", firstFlagAt, minDiskSamples)
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
	d := newStragglerDetector(8)
	for i := 0; i < 10; i++ {
		for id := 0; id < 8; id++ {
			d.observe(id, 16)
		}
	}
	evicted := false
	streaks := 0
	for cycle := 0; cycle < 10; cycle++ {
		// Three slow scores (below the eviction threshold of 4)...
		for i := 0; i < evictAfterFlags-1; i++ {
			f, e := d.observe(3, 1)
			if f {
				streaks++
			}
			if e {
				evicted = true
			}
		}
		// ...then a healthy one resets the streak.
		d.observe(3, 16)
	}
	if evicted {
		t.Fatal("intermittent slow blips must not evict")
	}
	if streaks < 2 {
		t.Fatalf("%d slow streaks began, want several; the test checks nothing", streaks)
	}
}

// TestHedgeWinsOverSlowSource: rebuilds stuck reading from a crawling
// buddy launch duplicate transfers from a healthy buddy, and the hedge
// finishes first. Every block still rebuilds and no index leaks.
func TestHedgeWinsOverSlowSource(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
	env := h.env()
	env.Straggler = StragglerPolicy{Enabled: true}
	f := NewFARM(env)
	// Make disk 1 the crawler so only rebuilds sourced from it are stuck.
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

// firstReadFailsFM is a FaultModel whose first probed read of each
// group from any disk but the crawler faults transiently; every later
// read succeeds. A hedge launched against a primary stuck on the
// crawler makes its group's first healthy read, so it loses its one
// race and leaves the rebuild to the timeout.
type firstReadFailsFM struct {
	crawler int
	seen    map[int]bool
}

func (f *firstReadFailsFM) ProbeRead(_ sim.Time, src, group int) faults.Outcome {
	if src == f.crawler || f.seen[group] {
		return faults.ReadOK
	}
	f.seen[group] = true
	return faults.ReadTransient
}
func (f *firstReadFailsFM) RetryBackoff(int) sim.Time { return 0.01 }
func (f *firstReadFailsFM) MaxRetries() int           { return 3 }
func (f *firstReadFailsFM) MaxResourcings() int       { return 8 }

// TestTimeoutReSourcesStuckRebuild: once a rebuild's hedge has lost its
// race, the hard timeout aborts the transfer stuck on the crawling
// source and the ladder re-sources it to a healthy buddy.
func TestTimeoutReSourcesStuckRebuild(t *testing.T) {
	run := func(mitigate bool) *FARM {
		h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
		env := h.env()
		env.Straggler = StragglerPolicy{Enabled: mitigate}
		env.Faults = &firstReadFailsFM{crawler: 1, seen: make(map[int]bool)}
		f := NewFARM(env)
		h.cl.Disks[1].Slowdown = 64
		lost := h.failAndDetect(f, 0)
		h.eng.Run()
		st := f.tally
		if st.BlocksRebuilt != len(lost) {
			t.Fatalf("rebuilt %d of %d (mitigate=%v)", st.BlocksRebuilt, len(lost), mitigate)
		}
		if tracked(&f.base) != 0 || hedgesTracked(&f.base) != 0 {
			t.Fatal("rebuilds or hedges leaked in the indexes")
		}
		if err := h.cl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	off := run(false).Stats()
	f := run(true)
	tl := f.tally
	if tl.HedgeWins >= tl.Hedges {
		t.Fatalf("hedges=%d wins=%d, want hedges that lose", tl.Hedges, tl.HedgeWins)
	}
	if tl.RebuildTimeouts == 0 || tl.Resourcings == 0 {
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
	env := h.env()
	env.Straggler = StragglerPolicy{Enabled: true}
	f := NewFARM(env)
	h.cl.Disks[1].Slowdown = 64
	lost := h.failAndDetect(f, 0)
	for f.tally.Hedges == 0 {
		if !h.eng.Step() {
			t.Fatal("queue drained before any hedge launched")
		}
	}
	// Kill one hedge's target disk.
	victim := -1
	for id, l := range f.hedgeByDisk.lists {
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
// that disk. The transfers are fed to the detector directly: in a live
// run the hedges win the crawler's races before its own transfers end,
// so it is never scored.
func TestEvictionCallbackFires(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 120)
	var evicted []int
	env := h.env()
	env.Straggler = StragglerPolicy{Enabled: true}
	env.Evict = func(now sim.Time, id int) { evicted = append(evicted, id) }
	f := NewFARM(env)
	healthy := f.blockDuration()
	n := h.cl.NumDisks()
	// Warm the cluster median on transfers between the other disks.
	for i := 0; i < 2*minClusterSamples; i++ {
		src := 2 + i%(n-2)
		tgt := 2 + (i+1)%(n-2)
		f.noteTransfer(0, &Task{Source: src, Target: tgt, Duration: healthy})
	}
	// Disk 1 crawls at 1/16 speed; its targets rotate, so each is dinged
	// at most once.
	for i := 0; i < 2*(minDiskSamples+evictAfterFlags); i++ {
		tgt := 2 + i%(n-2)
		f.noteTransfer(0, &Task{Source: 1, Target: tgt, Duration: 16 * healthy})
	}
	st := f.tally
	if st.SlowFlagged != 1 {
		t.Fatalf("flagged %d disks, want the crawler alone", st.SlowFlagged)
	}
	if st.SlowEvicted != 1 || len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evictions=%d callback=%v, want exactly disk 1 once", st.SlowEvicted, evicted)
	}
}

// TestDisabledPolicyIsInert: with the layer off, the engine builds no
// detector and a crawling disk draws no hedge, timeout, slow flag or
// eviction. With the layer on, the same run does hedge, so the check is
// not vacuous.
func TestDisabledPolicyIsInert(t *testing.T) {
	run := func(p StragglerPolicy) *FARM {
		h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
		env := h.env()
		env.Straggler = p
		f := NewFARM(env)
		h.cl.Disks[1].Slowdown = 64
		h.failAndDetect(f, 0)
		h.eng.Run()
		return f
	}
	off := run(StragglerPolicy{})
	if off.det != nil {
		t.Fatal("disabled layer built a detector")
	}
	tl := *off.tally
	if tl.Hedges != 0 || tl.RebuildTimeouts != 0 || tl.SlowFlagged != 0 || tl.SlowEvicted != 0 {
		t.Fatalf("disabled layer acted: %+v", tl)
	}
	if tl.BlocksRebuilt == 0 {
		t.Fatal("no rebuild completed; the comparison checks nothing")
	}
	if on := run(StragglerPolicy{Enabled: true}); on.tally.Hedges == 0 {
		t.Fatal("enabled layer never hedged the crawler; the comparison checks nothing")
	}
}

// TestEffDurationHealthyIsExact: with both endpoints healthy, the
// effective duration must be the base duration bit for bit.
func TestEffDurationHealthyIsExact(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	f := NewFARM(h.env())
	base := sim.Time(disk.RebuildHours(h.cl.BlockBytes, 16))
	if got := f.effDuration(base, 2, 3); got != base {
		t.Fatalf("healthy effDuration %v != base %v", got, base)
	}
	h.cl.Disks[3].Slowdown = 4
	if got := f.effDuration(base, 2, 3); got != sim.Time(float64(base)*4) {
		t.Fatalf("slow-target effDuration %v, want 4x base", got)
	}
}

// TestEffDurationSubUnityIsHealthy: the engine reads each endpoint's
// Drive.SlowFactor. A factor of exactly 1 or a sub-unity setting (which
// never speeds a disk up) leaves the base duration bit for bit.
func TestEffDurationSubUnityIsHealthy(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	f := NewFARM(h.env())
	base := sim.Time(disk.RebuildHours(h.cl.BlockBytes, 16))
	h.cl.Disks[3].Slowdown = 1
	if got := f.effDuration(base, 2, 3); got != base {
		t.Fatalf("unit factor changed the duration: %v != %v", got, base)
	}
	h.cl.Disks[5].Slowdown = 0.5
	if f := h.cl.Disks[5].SlowFactor(); f != 1 {
		t.Fatalf("sub-unity setting reads factor %v, want 1", f)
	}
	if got := f.effDuration(base, 5, 3); got != base {
		t.Fatalf("sub-unity factor changed the duration: %v != %v", got, base)
	}
}

// TestEffDurationUnsetSlowdown: a drive whose slowdown was never set
// reads healthy, so a transfer between two such drives takes exactly
// the base duration.
func TestEffDurationUnsetSlowdown(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	f := NewFARM(h.env())
	base := sim.Time(disk.RebuildHours(h.cl.BlockBytes, 16))
	if h.cl.Disks[9].Slowdown != 0 || h.cl.Disks[9].SlowFactor() != 1 {
		t.Fatalf("unset drive reads factor %v, want 1", h.cl.Disks[9].SlowFactor())
	}
	if got := f.effDuration(base, 9, 0); got != base {
		t.Fatalf("unset slowdown changed the duration: %v != %v", got, base)
	}
}

// TestEffDurationWorseEndpoint: a transfer runs at the slower endpoint's
// rate, so the duration scales by the larger of the two factors.
func TestEffDurationWorseEndpoint(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	f := NewFARM(h.env())
	base := sim.Time(disk.RebuildHours(h.cl.BlockBytes, 16))
	h.cl.Disks[1].Slowdown = 4
	h.cl.Disks[2].Slowdown = 16
	for _, tc := range []struct {
		src, tgt int
		want     float64
	}{
		{0, 3, 1},  // both healthy
		{1, 0, 4},  // slow source
		{0, 2, 16}, // crawling target
		{1, 2, 16}, // worse endpoint wins
		{2, 1, 16}, // either order
	} {
		if got := f.effDuration(base, tc.src, tc.tgt); got != sim.Time(float64(base)*tc.want) {
			t.Errorf("effDuration(%d,%d) = %v, want %vx base", tc.src, tc.tgt, got, tc.want)
		}
	}
}
