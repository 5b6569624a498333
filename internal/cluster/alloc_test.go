package cluster

import (
	"runtime"
	"testing"

	"repro/internal/redundancy"
)

// TestFailDiskZeroAlloc is the allocation-regression gate for the
// per-failure bookkeeping: failing a disk and unlinking its blocks must
// not touch the heap (the byDisk slice is handed back, group state is
// updated in the flat arena).
func TestFailDiskZeroAlloc(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 2}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	if c.NumDisks() < runs+2 {
		t.Fatalf("cluster too small for the test: %d disks", c.NumDisks())
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		c.FailDisk(next, float64(next))
		next++
	}); n != 0 {
		t.Fatalf("FailDisk allocates %v times per run, want 0", n)
	}
}

// TestRecoveryTargetSelectionZeroAlloc gates the steady-state rebuild
// targeting path: filling the reusable buddy-exclusion scratch and
// walking the candidate stream must be allocation-free.
func TestRecoveryTargetSelectionZeroAlloc(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 3}, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Fail one disk so there are genuinely missing blocks to target.
	lost, _ := c.FailDisk(1, 0)
	if len(lost) == 0 {
		t.Fatal("disk 1 held no blocks")
	}
	ref := lost[0]
	// Warm the scratch once (first use sizes it to the disk population).
	c.BuddyExcludes(int(ref.Group))
	if n := testing.AllocsPerRun(100, func() {
		ex := c.BuddyExcludes(int(ref.Group))
		if _, _, err := c.Hasher().RecoveryTarget(
			c, uint64(ref.Group), int(ref.Rep), c.BlockBytes, ex, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("recovery-target selection allocates %v times per run, want 0", n)
	}
}

// TestBuddyExcludesMatchesGroupState pins BuddyExcludes semantics: the
// scratch must contain exactly the disks holding intact blocks of the
// group, and a following call for another group must fully supersede it.
func TestBuddyExcludesMatchesGroupState(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 3}, 100))
	if err != nil {
		t.Fatal(err)
	}
	in := func(ds []int32, id int) bool {
		for _, d := range ds {
			if int(d) == id {
				return true
			}
		}
		return false
	}
	for g := 0; g < 10; g++ {
		ex := c.BuddyExcludes(g)
		for id := 0; id < c.NumDisks(); id++ {
			want := in(c.GroupDisks(g), id)
			if got := ex.Excluded(id); got != want {
				t.Fatalf("group %d disk %d: excluded=%v want %v", g, id, got, want)
			}
		}
	}
	// Epoch reuse: the next call must clear the previous group's marks.
	first := c.BuddyExcludes(0)
	d0 := int(c.GroupDiskOf(0, 0))
	second := c.BuddyExcludes(1)
	if first != second {
		t.Fatal("BuddyExcludes must return the shared scratch")
	}
	if !in(c.GroupDisks(1), d0) && second.Excluded(d0) {
		t.Fatal("stale exclusion survived epoch reset")
	}
}

// TestGroupStateScalesWithDamage pins the lazy-materialization contract:
// group bookkeeping exists only for groups touched by damage, is recycled
// to the pool on full repair, and the pool is reused — so resident group
// state follows concurrent damage, never fleet size.
func TestGroupStateScalesWithDamage(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 3}, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if live, pooled := c.MaterializedGroupStates(); live != 0 || pooled != 0 {
		t.Fatalf("healthy fleet holds %d live / %d pooled records", live, pooled)
	}

	repair := func(lost []BlockRef) {
		t.Helper()
		for _, ref := range lost {
			g := int(ref.Group)
			target, _, err := c.Hasher().RecoveryTarget(
				c, uint64(ref.Group), int(ref.Rep), c.BlockBytes, c.BuddyExcludes(g), 0)
			if err != nil {
				t.Fatalf("no target for %v: %v", ref, err)
			}
			if !c.ReserveTarget(target) {
				t.Fatalf("reserve failed on %d", target)
			}
			c.PlaceRecovered(g, int(ref.Rep), target)
		}
	}

	lost, _ := c.FailDisk(7, 1)
	touched := map[int32]bool{}
	for _, ref := range lost {
		touched[ref.Group] = true
	}
	live, pooled := c.MaterializedGroupStates()
	if live != len(touched) || pooled != 0 {
		t.Fatalf("after one failure: %d live / %d pooled, want %d / 0", live, pooled, len(touched))
	}
	if live >= c.GroupCount()/10 {
		t.Fatalf("one failure materialized %d of %d groups", live, c.GroupCount())
	}

	repair(lost)
	live, pooled = c.MaterializedGroupStates()
	if live != 0 || pooled != len(touched) {
		t.Fatalf("after full repair: %d live / %d pooled, want 0 / %d", live, pooled, len(touched))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A second damage wave of similar size must be absorbed by the pool:
	// the record table's high-water mark may creep only if the new wave
	// touches more groups than the pool holds.
	highWater := live + pooled
	lost2, _ := c.FailDisk(11, 2)
	repair(lost2)
	live, pooled = c.MaterializedGroupStates()
	if live != 0 {
		t.Fatalf("second wave left %d live records", live)
	}
	if grown := live + pooled - highWater; grown > len(lost2) {
		t.Fatalf("pool grew by %d on a reusable wave of %d blocks", grown, len(lost2))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTouchReleaseZeroAlloc gates the steady-state materialize/recycle
// cycle: once the pool holds a record, damaging and repairing a group
// must not allocate.
func TestTouchReleaseZeroAlloc(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 2}, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool with one record.
	c.touch(0)
	c.releaseState(0)
	if n := testing.AllocsPerRun(100, func() {
		c.touch(42)
		c.releaseState(42)
	}); n != 0 {
		t.Fatalf("touch/release cycle allocates %v times per run, want 0", n)
	}
}

// TestNewAllocsIndependentOfFleet gates the block-list arena: a build
// makes the same small number of allocations at 250 disks as at 10 240,
// because every disk's list is carved from one array.
func TestNewAllocsIndependentOfFleet(t *testing.T) {
	const ceiling = 16
	allocs := func(disks int) (float64, int) {
		// Size the data to fill about disks drives at 40 %.
		cfg := testConfig(redundancy.Scheme{M: 1, N: 2}, 1)
		perDisk := float64(cfg.DiskModel.CapacityBytes) * cfg.InitialUtilization
		cfg.NumGroups = int(float64(disks) * perDisk / float64(cfg.Scheme.GroupRawBytes(cfg.GroupBytes)))
		var got int
		n := testing.AllocsPerRun(2, func() {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got = c.NumDisks()
		})
		return n, got
	}
	small, smallDisks := allocs(250)
	large, largeDisks := allocs(10240)
	if smallDisks > 250 || smallDisks < 240 || largeDisks > 10240 || largeDisks < 10000 {
		t.Fatalf("built %d and %d disks, want about 250 and 10240", smallDisks, largeDisks)
	}
	if small != large || large > ceiling {
		t.Fatalf("New allocates %v times at 250 disks and %v at 10240, want equal and <= %d", small, large, ceiling)
	}
}

// TestAddedDiskTakesEstWithoutAllocating: a drive from AddDisks comes
// with a list reserving the fleet's blocks per disk plus slack, so
// rebuilding a failed drive's blocks onto it (PlaceRecovered) and moving
// blocks onto it (MoveBlock) up to that reservation never touches the
// heap.
func TestAddedDiskTakesEstWithoutAllocating(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 2}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	ids := c.AddDisks(2, 10)
	warm, spare := ids[0], ids[1]
	est := cap(c.BlocksOn(spare))
	if want := listReserve(c.indexed, c.NumDisks()-2); est != want || est <= len(c.BlocksOn(0)) {
		t.Fatalf("added drive reserves %d blocks, want %d, above disk 0's %d", est, want, len(c.BlocksOn(0)))
	}
	// Warm the group-state pool: rebuild the fullest drive onto the
	// first new drive, so the measured failure below reuses records.
	fullest := 0
	for d := range c.Disks[:ids[0]] {
		if len(c.BlocksOn(d)) > len(c.BlocksOn(fullest)) {
			fullest = d
		}
	}
	lost, _ := c.FailDisk(fullest, 1)
	for _, ref := range lost {
		if !c.ReserveTarget(warm) {
			t.Fatalf("warm-up drive %d full", warm)
		}
		c.PlaceRecovered(int(ref.Group), int(ref.Rep), warm)
	}
	victim := 0
	if victim == fullest {
		victim = 1
	}
	lost, _ = c.FailDisk(victim, 2)
	if len(lost) == 0 || len(lost) >= est {
		t.Fatalf("disk %d lost %d blocks; the test needs 0 < lost < est=%d", victim, len(lost), est)
	}
	onSpare := map[int32]bool{}
	for _, ref := range lost {
		onSpare[ref.Group] = true
	}
	// Top-up blocks from groups the spare does not hold yet, picked
	// before measuring.
	var moves []BlockRef
	for d := range c.Disks[:ids[0]] {
		for _, ref := range c.BlocksOn(d) {
			if len(lost)+len(moves) < est && !onSpare[ref.Group] {
				onSpare[ref.Group] = true
				moves = append(moves, ref)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ref := range lost {
		if !c.ReserveTarget(spare) {
			t.Fatalf("spare %d full", spare)
		}
		c.PlaceRecovered(int(ref.Group), int(ref.Rep), spare)
	}
	for _, ref := range moves {
		if !c.MoveBlock(ref, spare) {
			t.Fatalf("MoveBlock(%v, %d) refused", ref, spare)
		}
	}
	runtime.ReadMemStats(&after)
	if got := len(c.BlocksOn(spare)); got != est {
		t.Fatalf("spare holds %d blocks, want est=%d", got, est)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("placing %d blocks on an added drive allocated %d times, want 0", est, n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowingListsKeepNeighbours builds with a reservation far
// below the blocks each disk receives, so every list outgrows its share
// of the arena during the build. A list that wrote past its share would
// overwrite its neighbour's blocks and break the index.
func TestOverflowingListsKeepNeighbours(t *testing.T) {
	cfg := testConfig(redundancy.Scheme{M: 1, N: 3}, 500)
	const est = 2
	c, err := build(cfg, cfg.DisksFor(), est)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for d := range c.Disks {
		if len(c.BlocksOn(d)) > est {
			over++
		}
	}
	if over < c.NumDisks()/2 {
		t.Fatalf("only %d of %d lists outgrew est=%d; the check is vacuous", over, c.NumDisks(), est)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Growth after the build must respect the shares too: pile blocks
	// onto disk 1, whose share sits between disks 0 and 2.
	moved := 0
	for d := 2; d < c.NumDisks() && moved < 4*est; d++ {
		for _, ref := range append([]BlockRef(nil), c.BlocksOn(d)...) {
			if !c.BuddyExcludes(int(ref.Group)).Excluded(1) && c.MoveBlock(ref, 1) {
				moved++
			}
		}
	}
	if moved < 4*est {
		t.Fatalf("moved only %d blocks onto disk 1", moved)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAddedDiskReserveFollowsFleet: a batch reserves the blocks per
// disk the fleet holds now, not the build's. A fleet that lost its
// drives' data and replaced them with drives that stayed empty reserves
// little for the next drive, so churning through drives does not pay
// for lists that are never filled.
func TestAddedDiskReserveFollowsFleet(t *testing.T) {
	c, err := New(testConfig(redundancy.Scheme{M: 1, N: 2}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	built := cap(c.BlocksOn(0))
	failed := c.NumDisks() * 3 / 4
	for d := 0; d < failed; d++ {
		c.FailDisk(d, 1)
	}
	c.AddDisks(failed, 2)
	id := c.AddDisks(1, 3)[0]
	if got, want := cap(c.BlocksOn(id)), listReserve(c.indexed, c.AliveDisks()-1); got != want || got >= built/2 {
		t.Fatalf("drive added to a mostly empty fleet reserves %d blocks, want %d (build reserved %d)", got, want, built)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
