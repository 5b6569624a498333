package replace

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/redundancy"
	"repro/internal/topology"
)

func buildCluster(t *testing.T, groups int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Scheme:             redundancy.Scheme{M: 1, N: 2},
		GroupBytes:         10 * disk.GB,
		NumGroups:          groups,
		DiskModel:          disk.DefaultModel(),
		InitialUtilization: 0.4,
		PlacementSeed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNewPolicy(t *testing.T) {
	for _, f := range []float64{0.02, 0.04, 0.06, 0.08} {
		if _, err := NewPolicy(f); err != nil {
			t.Errorf("NewPolicy(%v): %v", f, err)
		}
	}
	for _, f := range []float64{0, 1, -0.5, 2} {
		if _, err := NewPolicy(f); err == nil {
			t.Errorf("NewPolicy(%v) should fail", f)
		}
	}
}

func TestThreshold(t *testing.T) {
	p, _ := NewPolicy(0.2)
	if got := p.Threshold(1000); got != 200 {
		t.Fatalf("Threshold(1000) = %d, want 200", got)
	}
	tiny, _ := NewPolicy(0.2)
	if got := tiny.Threshold(3); got != 1 {
		t.Fatalf("Threshold(3) = %d, want at least 1", got)
	}
}

func TestExpectedBatches(t *testing.T) {
	// The paper: ~10% of drives fail over six years, so a 2% batch fires
	// about five times and an 8% batch about once (§3.6).
	p2, _ := NewPolicy(0.02)
	p8, _ := NewPolicy(0.08)
	if got := p2.ExpectedBatches(0.10); got != 5 {
		t.Fatalf("2%% trigger: %d batches, want 5", got)
	}
	if got := p8.ExpectedBatches(0.10); got != 1 {
		t.Fatalf("8%% trigger: %d batches, want 1", got)
	}
	if got := p2.ExpectedBatches(0); got != 0 {
		t.Fatalf("no failures: %d batches, want 0", got)
	}
}

func TestRebalanceOntoMovesData(t *testing.T) {
	cl := buildCluster(t, 400)
	ids := cl.AddDisks(2, 1000)
	migrated := RebalanceOnto(cl, ids)
	if migrated <= 0 {
		t.Fatal("no bytes migrated onto fresh drives")
	}
	for _, id := range ids {
		if cl.Disks[id].UsedBytes == 0 {
			t.Fatalf("new disk %d still empty", id)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalancePreservesGroupInvariant(t *testing.T) {
	cl := buildCluster(t, 400)
	ids := cl.AddDisks(3, 1000)
	RebalanceOnto(cl, ids)
	for g := 0; g < cl.GroupCount(); g++ {
		d := cl.GroupDisks(g)
		seen := map[int32]bool{}
		for _, id := range d {
			if id < 0 {
				continue
			}
			if seen[id] {
				t.Fatalf("group %d has two blocks on disk %d after rebalance", g, id)
			}
			seen[id] = true
		}
	}
}

// TestRebalanceKeepsRackSpread pins that rebalancing obeys the
// cluster's whole target rule: on a rack-aware fleet whose failed disks
// were repaired, moving blocks onto a fresh batch never puts two blocks
// of a group in one rack (CheckInvariants' rack check).
func TestRebalanceKeepsRackSpread(t *testing.T) {
	net, err := topology.NewNetwork(topology.Config{Racks: 4, RackAware: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Scheme:             redundancy.Scheme{M: 1, N: 2},
		GroupBytes:         10 * disk.GB,
		NumGroups:          800,
		DiskModel:          disk.DefaultModel(),
		InitialUtilization: 0.4,
		PlacementSeed:      3,
		Net:                net,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 6; id++ {
		lost, _ := cl.FailDisk(id, float64(id))
		for _, ref := range lost {
			g := int(ref.Group)
			target, _, err := cl.Hasher().RecoveryTarget(
				cl, uint64(g), int(ref.Rep), cl.BlockBytes, cl.BuddyExcludes(g), 0)
			if err != nil {
				t.Fatalf("no target for %v: %v", ref, err)
			}
			if !cl.ReserveTarget(target) {
				t.Fatalf("reserve failed on %d", target)
			}
			cl.PlaceRecovered(g, int(ref.Rep), target)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
	ids := cl.AddDisks(6, 1000)
	var rb Rebalancer
	if rb.Onto(cl, ids) == 0 {
		t.Fatal("rebalance moved nothing")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatalf("after rebalance: %v", err)
	}
}

func TestRebalanceApproachesMean(t *testing.T) {
	cl := buildCluster(t, 800)
	ids := cl.AddDisks(2, 1000)
	RebalanceOnto(cl, ids)
	var total int64
	alive := 0
	for _, d := range cl.Disks {
		if d.State == disk.Alive {
			total += d.UsedBytes
			alive++
		}
	}
	mean := total / int64(alive)
	for _, id := range ids {
		got := cl.Disks[id].UsedBytes
		// Within one block of the mean.
		if got < mean-cl.BlockBytes || got > mean+cl.BlockBytes {
			t.Fatalf("new disk %d at %d bytes, mean %d", id, got, mean)
		}
	}
}

func TestRebalanceMigratedFractionSmall(t *testing.T) {
	// The paper's point: replacing a small failed fraction moves only a
	// small share of the data (2–8%).
	cl := buildCluster(t, 800)
	var before int64
	for _, d := range cl.Disks {
		before += d.UsedBytes
	}
	ids := cl.AddDisks(1, 1000) // ~2% of a ~50-disk system
	migrated := RebalanceOnto(cl, ids)
	frac := float64(migrated) / float64(before)
	if frac <= 0 || frac > 0.10 {
		t.Fatalf("migrated fraction %v, want small (0, 0.10]", frac)
	}
}

func TestRebalanceNoNewDisks(t *testing.T) {
	cl := buildCluster(t, 100)
	if got := RebalanceOnto(cl, nil); got != 0 {
		t.Fatalf("migrated %d bytes with no new disks", got)
	}
}

func TestRebalanceDeadClusterIsNoop(t *testing.T) {
	cl := buildCluster(t, 50)
	for id := 0; id < cl.NumDisks(); id++ {
		cl.FailDisk(id, 1)
	}
	ids := cl.AddDisks(1, 10)
	// Only the new disk is alive and there are no donors above the mean
	// holding anything — nothing should move, and nothing should panic.
	if got := RebalanceOnto(cl, ids); got != 0 {
		t.Fatalf("migrated %d bytes from a dead cluster", got)
	}
}

// TestRebalancerReuseZeroAlloc: once a Rebalancer's buffers are warm, a
// further rebalance allocates nothing. Each measured run migrates onto
// the fresh drives and then moves every migrated block back where it
// came from, so every run does the same real work.
func TestRebalancerReuseZeroAlloc(t *testing.T) {
	cl := buildCluster(t, 400)
	ids := cl.AddDisks(2, 1000)
	n := cl.Cfg.Scheme.N
	origin := make([]int32, cl.GroupCount()*n)
	var moved []cluster.BlockRef
	var rb Rebalancer
	migrated := int64(0)
	run := func() {
		for g := 0; g < cl.GroupCount(); g++ {
			for rep := 0; rep < n; rep++ {
				origin[g*n+rep] = cl.GroupDiskOf(g, rep)
			}
		}
		migrated = rb.Onto(cl, ids)
		for _, nd := range ids {
			moved = append(moved[:0], cl.BlocksOn(nd)...)
			for _, ref := range moved {
				cl.MoveBlock(ref, int(origin[int(ref.Group)*n+int(ref.Rep)]))
			}
		}
	}
	run()
	if migrated <= 0 {
		t.Fatal("warm-up rebalance migrated nothing")
	}
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("a warm Rebalancer allocates %v times per rebalance, want 0", a)
	}
	if migrated <= 0 {
		t.Fatal("measured rebalance migrated nothing")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancerMatchesRebalanceOnto: a Rebalancer reused across batches
// moves exactly the blocks a fresh RebalanceOnto would.
func TestRebalancerMatchesRebalanceOnto(t *testing.T) {
	a, b := buildCluster(t, 400), buildCluster(t, 400)
	var rb Rebalancer
	for batch := 0; batch < 3; batch++ {
		ia, ib := a.AddDisks(2, 1000), b.AddDisks(2, 1000)
		if ma, mb := RebalanceOnto(a, ia), rb.Onto(b, ib); ma != mb {
			t.Fatalf("batch %d: RebalanceOnto migrated %d bytes, reused Rebalancer %d", batch, ma, mb)
		}
		for g := 0; g < a.GroupCount(); g++ {
			for rep := 0; rep < a.Cfg.Scheme.N; rep++ {
				if a.GroupDiskOf(g, rep) != b.GroupDiskOf(g, rep) {
					t.Fatalf("batch %d: block %d/%d on %d vs %d", batch, g, rep, a.GroupDiskOf(g, rep), b.GroupDiskOf(g, rep))
				}
			}
		}
	}
}
