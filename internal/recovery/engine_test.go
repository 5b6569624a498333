package recovery

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// harness bundles a small cluster with an engine under test.
type harness struct {
	cl    *cluster.Cluster
	eng   *sim.Engine
	sched *Scheduler
	net   *topology.Network
}

func newHarness(t *testing.T, scheme redundancy.Scheme, groups int) *harness {
	t.Helper()
	return newHarnessNet(t, scheme, groups, nil)
}

// newHarnessNet is newHarness over the network fabric net (nil for the
// flat model).
func newHarnessNet(t *testing.T, scheme redundancy.Scheme, groups int, net *topology.Network) *harness {
	t.Helper()
	cfg := cluster.Config{
		Scheme:             scheme,
		GroupBytes:         10 * disk.GB,
		NumGroups:          groups,
		DiskModel:          disk.DefaultModel(),
		InitialUtilization: 0.4,
		PlacementSeed:      7,
		// Keep the cluster comfortably wider than one group so recovery
		// targets satisfying rule (b) always exist.
		ExtraDisks: 10,
		Net:        net,
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	return &harness{cl: cl, eng: eng, sched: NewScheduler(eng, cl.NumDisks()), net: net}
}

// env returns the environment of an engine over the harness: its
// cluster, kernel, scheduler and fabric, the paper's base rate (fixed
// 16 MB/s), a fresh tally, and every other layer off. Tests switch a
// layer on by setting its field before constructing the engine.
func (h *harness) env() Env {
	return Env{Cluster: h.cl, Sim: h.eng, Sched: h.sched, Throttle: fixedRate(16),
		Tally: new(obs.Tally), Net: h.net}
}

// spawn is a DiskSpawner: it adds one drive to the harness's cluster
// (the spare engine grows its own and the scheduler's tables).
func (h *harness) spawn(now sim.Time) int {
	return h.cl.AddDisks(1, float64(now))[0]
}

// fixedRate is the paper's base rate decision: every rebuild runs at
// mbps per disk.
func fixedRate(mbps float64) workload.ThrottlePolicy {
	p, err := workload.NewThrottle(workload.ThrottleConfig{Policy: workload.PolicyFixed, FloorMBps: mbps}, 80)
	if err != nil {
		panic(err)
	}
	return p
}

// failAndDetect plays a failure at the current time with zero detection
// latency through the engine.
func (h *harness) failAndDetect(e Engine, id int) []cluster.BlockRef {
	now := h.eng.Now()
	lost, _ := h.cl.FailDisk(id, float64(now))
	e.HandleFailure(now, id)
	e.HandleDetection(now, id, now, lost)
	return lost
}

func TestFARMRebuildsEverything(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 300)
	f := NewFARM(h.env())
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("disk 0 held no blocks")
	}
	h.eng.Run()
	if f.tally.BlocksRebuilt != len(lost) {
		t.Fatalf("rebuilt %d of %d blocks", f.tally.BlocksRebuilt, len(lost))
	}
	for _, ref := range lost {
		g := int(ref.Group)
		if h.cl.GroupAvailable(g) != 2 || h.cl.GroupLost(g) {
			t.Fatalf("group %d not restored", ref.Group)
		}
		// Rule (b): blocks of a group on distinct disks.
		if h.cl.GroupDiskOf(g, 0) == h.cl.GroupDiskOf(g, 1) {
			t.Fatalf("group %d has both blocks on one disk", ref.Group)
		}
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.cl.LostGroups != 0 {
		t.Fatal("unexpected data loss")
	}
}

func TestFARMTargetsAreSpread(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 400)
	f := NewFARM(h.env())
	lost := h.failAndDetect(f, 1)
	h.eng.Run()
	// Count distinct target disks among the recovered replicas.
	targets := map[int32]bool{}
	for _, ref := range lost {
		targets[h.cl.GroupDiskOf(int(ref.Group), int(ref.Rep))] = true
	}
	// Declustering: the rebuilt blocks should land on many disks, not one.
	if len(targets) < 3 {
		t.Fatalf("FARM used only %d target disks for %d blocks", len(targets), len(lost))
	}
}

func TestFARMFasterThanSpare(t *testing.T) {
	// The paper's core claim: FARM's parallel rebuild finishes far sooner
	// than the serialized spare-disk rebuild.
	mkTime := func(useFARM bool) sim.Time {
		h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 300)
		env := h.env()
		var e Engine
		if useFARM {
			e = NewFARM(env)
		} else {
			e = NewSpareDisk(env, h.spawn, 0)
		}
		h.failAndDetect(e, 0)
		h.eng.Run()
		if env.Tally.BlocksRebuilt == 0 {
			t.Fatal("no blocks rebuilt")
		}
		return sim.Time(e.Stats().Window.Max())
	}
	farm := mkTime(true)
	spare := mkTime(false)
	if farm*4 > spare {
		t.Fatalf("FARM window %v not clearly shorter than spare window %v", farm, spare)
	}
}

func TestSpareDiskSerializesOnOneTarget(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 300)
	var spareID int
	e := NewSpareDisk(h.env(), func(now sim.Time) int {
		spareID = h.spawn(now)
		return spareID
	}, 0)
	lost := h.failAndDetect(e, 0)
	h.eng.Run()
	if e.tally.SparesUsed != 1 {
		t.Fatalf("spares used = %d", e.tally.SparesUsed)
	}
	// All recovered blocks sit on the one spare.
	for _, ref := range lost {
		got := h.cl.GroupDiskOf(int(ref.Group), int(ref.Rep))
		if got != int32(spareID) {
			t.Fatalf("block %v recovered to %d, want spare %d", ref, got, spareID)
		}
	}
	if failed, ok := e.spareRole[spareID]; !ok || failed != 0 {
		t.Fatal("spare role mapping wrong")
	}
	// Completion time == blocks × per-block duration (strict serialization).
	want := sim.Time(float64(len(lost)) * disk.RebuildHours(h.cl.BlockBytes, 16))
	if diff := h.eng.Now() - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("spare rebuild finished at %v, want %v", h.eng.Now(), want)
	}
}

func TestSpareDiskEmptyFailureNoSpare(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	e := NewSpareDisk(h.env(), func(now sim.Time) int {
		t.Fatal("spawned a spare for an empty disk")
		return -1
	}, 0)
	// Find a disk with no blocks (tiny cluster has spare room); if all
	// loaded, add one.
	empty := -1
	for id := 0; id < h.cl.NumDisks(); id++ {
		if len(h.cl.BlocksOn(id)) == 0 {
			empty = id
			break
		}
	}
	if empty == -1 {
		empty = h.cl.AddDisks(1, 0)[0]
		e.Grow(h.cl.NumDisks())
	}
	h.failAndDetect(e, empty)
	h.eng.Run()
	if e.tally.SparesUsed != 0 {
		t.Fatal("spare activated for empty disk")
	}
}

func TestFARMRedirectionOnTargetFailure(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 3}, 200)
	f := NewFARM(h.env())
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("no blocks lost")
	}
	// Let rebuilds start, then kill an active target mid-flight.
	h.eng.Step() // nothing scheduled yet except completions; find a target
	var target int = -1
	for id := 0; id < h.cl.NumDisks(); id++ {
		if h.sched.Busy(id) && id != 0 {
			// Busy disks include sources; pick one that is a target of
			// some in-flight rebuild.
			if len(f.byTarget.of(id)) > 0 {
				target = id
				break
			}
		}
	}
	if target == -1 {
		t.Skip("no busy target found; cluster too small")
	}
	now := h.eng.Now()
	h.cl.FailDisk(target, float64(now))
	f.HandleFailure(now, target)
	h.eng.Run()
	if f.tally.Redirections == 0 {
		t.Fatal("expected at least one redirection")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFARMResourcingOnSourceFailure(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 3}, 200)
	f := NewFARM(h.env())
	h.failAndDetect(f, 0)
	// Find an in-flight source and kill it. 3-way mirroring leaves an
	// alternative replica, so the rebuild re-sources rather than dying.
	var src int = -1
	for id := 0; id < h.cl.NumDisks(); id++ {
		if len(f.bySource.of(id)) > 0 {
			src = id
			break
		}
	}
	if src == -1 {
		t.Fatal("no in-flight source found")
	}
	now := h.eng.Now()
	lost2, _ := h.cl.FailDisk(src, float64(now))
	f.HandleFailure(now, src)
	f.HandleDetection(now, src, now, lost2)
	h.eng.Run()
	if f.tally.Resourcings == 0 {
		t.Fatal("expected at least one re-sourcing")
	}
	if h.cl.LostGroups != 0 {
		t.Fatalf("3-way mirror lost %d groups after two failures", h.cl.LostGroups)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorDataLossOnDoubleFailureBeforeRebuild(t *testing.T) {
	// Two-way mirroring, both replica disks die before any rebuild: the
	// shared groups are lost and the engine abandons their rebuilds.
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 300)
	f := NewFARM(h.env())
	now := h.eng.Now()
	lost0, _ := h.cl.FailDisk(0, float64(now))
	f.HandleFailure(now, 0)
	// Find a disk sharing a group with disk 0 and kill it too, before
	// detection of either failure.
	shared := -1
	for _, ref := range lost0 {
		if d := h.cl.SourceFor(int(ref.Group), -1); d >= 0 {
			shared = d
			break
		}
	}
	if shared < 0 {
		t.Fatal("no buddy disk found")
	}
	lost1, dead := h.cl.FailDisk(shared, float64(now))
	f.HandleFailure(now, shared)
	if dead == 0 {
		t.Fatal("double failure should have killed shared groups")
	}
	f.HandleDetection(now, 0, now, lost0)
	f.HandleDetection(now, shared, now, lost1)
	h.eng.Run()
	if h.cl.LostGroups != dead {
		t.Fatalf("LostGroups %d, expected %d", h.cl.LostGroups, dead)
	}
	if f.tally.DroppedRebuilds == 0 {
		t.Fatal("engine should have dropped rebuilds of lost groups")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestErasureToleratesTwoFailures(t *testing.T) {
	// 4/6 survives two overlapping failures with zero-latency detection.
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 150)
	f := NewFARM(h.env())
	h.failAndDetect(f, 0)
	h.failAndDetect(f, 1)
	h.eng.Run()
	if h.cl.LostGroups != 0 {
		t.Fatalf("4/6 lost %d groups after two failures", h.cl.LostGroups)
	}
	for g := 0; g < h.cl.GroupCount(); g++ {
		if h.cl.GroupAvailable(g) != 6 {
			t.Fatalf("group %d not fully restored (%d/6)", g, h.cl.GroupAvailable(g))
		}
	}
}

func TestSpareFailureMidRebuildRedirects(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 300)
	spawned := []int{}
	e := NewSpareDisk(h.env(), func(now sim.Time) int {
		id := h.spawn(now)
		spawned = append(spawned, id)
		return id
	}, 0)
	h.failAndDetect(e, 0)
	if len(spawned) != 1 {
		t.Fatal("no spare spawned")
	}
	// Kill the spare mid-rebuild.
	h.eng.Step() // progress a bit
	now := h.eng.Now()
	lostOnSpare, _ := h.cl.FailDisk(spawned[0], float64(now))
	e.HandleFailure(now, spawned[0])
	e.HandleDetection(now, spawned[0], now, lostOnSpare)
	h.eng.Run()
	if len(spawned) < 2 {
		t.Fatal("no replacement spare after spare failure")
	}
	if e.tally.Redirections == 0 {
		t.Fatal("expected redirections after spare death")
	}
	if h.cl.LostGroups != 0 {
		t.Fatalf("lost %d groups; replicas were all intact", h.cl.LostGroups)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowIncludesDetectionLatency(t *testing.T) {
	// Submitting detection later than the failure lengthens the measured
	// window by exactly the latency.
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 100)
	f := NewFARM(h.env())
	now := h.eng.Now()
	lost, _ := h.cl.FailDisk(0, float64(now))
	f.HandleFailure(now, 0)
	const latency = sim.Time(0.5) // hours
	h.eng.Schedule(now+latency, "detect", func(dnow sim.Time) {
		f.HandleDetection(dnow, 0, now, lost)
	})
	h.eng.Run()
	if f.Stats().Window.Min() < float64(latency) {
		t.Fatalf("window %v shorter than detection latency %v",
			f.Stats().Window.Min(), latency)
	}
}

// TestBlockDurationFollowsIdlePolicy: the throttle policy is the engine's
// one rate source. Under the idle schedule a rebuild requested at the
// 14:00 peak runs at the 16 MB/s floor and one requested at 02:00 at the
// whole 80 MB/s drive; GrantMBps reports each grant, and a slow endpoint
// stretches the policy's duration by its factor.
func TestBlockDurationFollowsIdlePolicy(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 10)
	p, err := workload.NewThrottle(workload.ThrottleConfig{Policy: workload.PolicyIdle, FloorMBps: 16}, 80)
	if err != nil {
		t.Fatal(err)
	}
	env := h.env()
	env.Throttle = p
	f := NewFARM(env)
	if f.GrantMBps() != 0 {
		t.Fatalf("grant %v before any rebuild, want 0", f.GrantMBps())
	}
	h.cl.Disks[3].Slowdown = 4
	for _, tc := range []struct{ at, mbps float64 }{{14, 16}, {24 + 2, 80}} {
		var got, slow sim.Time
		h.eng.Schedule(sim.Time(tc.at), "probe", func(sim.Time) {
			got = f.blockDuration()
			slow = f.effDuration(got, 2, 3)
		})
		h.eng.Run()
		want := sim.Time(disk.RebuildHours(h.cl.BlockBytes, tc.mbps))
		if math.Abs(float64(got-want)) > 1e-12*float64(want) {
			t.Errorf("hour %v: block duration %v, want %v at %v MB/s", tc.at, got, want, tc.mbps)
		}
		if math.Abs(f.GrantMBps()-tc.mbps) > 1e-9 {
			t.Errorf("hour %v: GrantMBps %v, want %v", tc.at, f.GrantMBps(), tc.mbps)
		}
		if slow != sim.Time(float64(got)*4) {
			t.Errorf("hour %v: slow-target duration %v, want 4x %v", tc.at, slow, got)
		}
	}
}
