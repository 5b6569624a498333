package recovery

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/redundancy"
)

// TestFARMPickTargetZeroAlloc is the allocation-regression gate for the
// FARM redirection/targeting path: in steady state, selecting a rebuild
// target — buddy exclusions, in-flight-target exclusions, candidate
// stream walk, and space reservation — must not touch the heap.
func TestFARMPickTargetZeroAlloc(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 3}, 400)
	f := NewFARM(h.cl, h.eng, h.sched, FixedBW(16), new(obs.Tally))

	// Put the engine into a realistic steady state: one failure with
	// rebuilds in flight, so perGroupTargets and the disk indexes are
	// populated and their backing storage is warm.
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("disk 0 held no blocks")
	}
	ref := lost[0]

	// Warm the exclusion scratch.
	f.cl.BuddyExcludes(int(ref.Group))

	if n := testing.AllocsPerRun(100, func() {
		target, _, ok := f.pickTarget(int(ref.Group), int(ref.Rep), 0)
		if !ok {
			t.Fatal("no target")
		}
		// Undo the reservation so repeated runs cannot fill the disk.
		f.cl.ReleaseTarget(target)
	}); n != 0 {
		t.Fatalf("FARM pickTarget allocates %v times per run, want 0", n)
	}
}

// TestTrackUntrackSteadyStateZeroAlloc verifies that the per-group
// in-flight-target index reuses its backing storage: a track/untrack
// cycle on a warmed group performs no allocation.
func TestTrackUntrackSteadyStateZeroAlloc(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 200)
	f := NewFARM(h.cl, h.eng, h.sched, FixedBW(16), new(obs.Tally))
	r := &rebuild{task: &Task{Group: 7, Rep: 0, Source: 1, Target: 2}}
	// Warm: first track allocates the group's slot and slice.
	f.track(r)
	f.untrack(r)
	if n := testing.AllocsPerRun(100, func() {
		f.track(r)
		f.untrack(r)
	}); n != 0 {
		t.Fatalf("track/untrack allocates %v times per run, want 0", n)
	}
}
