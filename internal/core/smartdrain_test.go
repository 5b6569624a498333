package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/smart"
	"repro/internal/workload"
)

// newDrainScenario builds a miniature run whose events the test drives by
// hand: a FARM cluster, the scheduler, and a runState wired exactly like
// runOnce, but with nothing queued yet — the test chooses what fails and
// what drains, and when.
func newDrainScenario(t *testing.T) *runState {
	t.Helper()
	cfg := smallConfig()
	model, err := cfg.diskModel()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Scheme:             cfg.Scheme,
		GroupBytes:         cfg.GroupBytes,
		NumGroups:          cfg.NumGroups(),
		DiskModel:          model,
		InitialUtilization: cfg.InitialUtilization,
		PlacementSeed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	sched := recovery.NewScheduler(eng, cl.NumDisks())
	st := &runState{
		cfg:     cfg,
		cl:      cl,
		eng:     eng,
		sched:   sched,
		random:  rng.New(cfg.Seed),
		res:     &RunResult{},
		monitor: smart.Monitor{},
	}
	st.engine = recovery.NewFARM(cl, eng, sched, workload.Fixed{MBps: cfg.RecoveryMBps}, &st.res.Tally)
	return st
}

// sharedBuddy returns a pair (a, b) of distinct alive disks that share at
// least one redundancy group, so failing b puts a on the rebuild path.
func sharedBuddy(t *testing.T, cl *cluster.Cluster) (a, b int) {
	t.Helper()
	for g := 0; g < cl.GroupCount(); g++ {
		d := cl.GroupDisks(g)
		if len(d) >= 2 && d[0] >= 0 && d[1] >= 0 {
			return int(d[0]), int(d[1])
		}
	}
	t.Fatal("no group with two placed replicas")
	return -1, -1
}

// finishAndCheck drains the event queue and verifies cluster invariants
// plus full redundancy for every non-lost group.
func finishAndCheck(t *testing.T, st *runState) {
	t.Helper()
	st.eng.RunUntil(sim.Time(st.cfg.SimHours))
	if err := st.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.cl.LostGroups != 0 {
		t.Fatalf("scenario lost %d groups", st.cl.LostGroups)
	}
}

// TestDrainWhileSource: a suspect drive starts draining while it is the
// rebuild source for a dead buddy's blocks. Both processes must finish —
// the rebuilds reconstruct every lost block, the drain empties and
// retires the suspect — without ever violating cluster invariants.
func TestDrainWhileSource(t *testing.T) {
	st := newDrainScenario(t)
	src, victim := sharedBuddy(t, st.cl)

	// Kill the buddy: detection + rebuilds start, sourcing (among others)
	// from src.
	st.eng.Schedule(1, "kill", func(now sim.Time) { st.onDiskFailure(now, victim) })
	// While those rebuilds are in flight, src turns suspect and drains.
	st.eng.Schedule(1.1, "warn", func(now sim.Time) { st.onSmartWarning(now, src) })
	finishAndCheck(t, st)

	if st.res.DrainedBlocks == 0 {
		t.Fatal("suspect source drained nothing")
	}
	if st.cl.Disks[src].State == disk.Alive {
		t.Fatal("fully drained suspect was not retired")
	}
	if len(st.cl.BlocksOn(src)) != 0 {
		t.Fatalf("%d blocks left on the retired suspect", len(st.cl.BlocksOn(src)))
	}
	if st.res.BlocksRebuilt == 0 {
		t.Fatal("no rebuilds completed around the draining source")
	}
}

// TestDrainWhileTarget: a drive turns suspect while in-flight rebuilds
// are targeting it. The landed blocks must be moved off again by the
// drain, and the suspect must end the run empty and retired.
func TestDrainWhileTarget(t *testing.T) {
	st := newDrainScenario(t)
	_, victim := sharedBuddy(t, st.cl)

	st.eng.Schedule(1, "kill", func(now sim.Time) { st.onDiskFailure(now, victim) })
	// Wait for rebuilds to be submitted (detection fires at +30 s), then
	// mark every disk currently reserved as a rebuild target suspect —
	// guaranteeing at least one drain races an inbound transfer.
	st.eng.Schedule(1.2, "warn-targets", func(now sim.Time) {
		marked := 0
		for id := 0; id < st.cl.NumDisks(); id++ {
			if id != victim && st.sched.Busy(id) && marked < 2 {
				st.onSmartWarning(now, id)
				marked++
			}
		}
		if marked == 0 {
			t.Error("no busy rebuild endpoints to mark suspect")
		}
	})
	finishAndCheck(t, st)

	if st.res.DrainedBlocks == 0 {
		t.Fatal("suspect targets drained nothing")
	}
	if st.res.BlocksRebuilt == 0 {
		t.Fatal("no rebuilds completed")
	}
}

// TestDrainThenDeath: a suspect drive dies mid-drain. The drain must stop
// cold, reactive recovery must take over the remaining blocks, and the
// dead drive's in-flight drain transfer must not resurrect anything.
func TestDrainThenDeath(t *testing.T) {
	st := newDrainScenario(t)
	suspect, _ := sharedBuddy(t, st.cl)
	before := len(st.cl.BlocksOn(suspect))
	if before == 0 {
		t.Fatal("chosen suspect holds no blocks")
	}

	st.eng.Schedule(1, "warn", func(now sim.Time) { st.onSmartWarning(now, suspect) })
	// The drain moves one block at a time at RecoveryMBps; kill the drive
	// after a couple of transfers, long before it can empty.
	st.eng.Schedule(2, "kill", func(now sim.Time) { st.onDiskFailure(now, suspect) })
	finishAndCheck(t, st)

	if st.res.DrainedBlocks == 0 {
		t.Fatal("no blocks drained before the death")
	}
	if st.res.DrainedBlocks >= before {
		t.Fatalf("drain claims %d blocks but only %d existed and the drive died early",
			st.res.DrainedBlocks, before)
	}
	if st.res.BlocksRebuilt == 0 {
		t.Fatal("reactive recovery rebuilt nothing after the mid-drain death")
	}
	// Everything the drain did not move was rebuilt reactively.
	if got := st.res.DrainedBlocks + st.res.BlocksRebuilt; got < before {
		t.Fatalf("drained %d + rebuilt %d < %d blocks the drive held",
			st.res.DrainedBlocks, st.res.BlocksRebuilt, before)
	}
}
