package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/redundancy"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFARMPickTargetZeroAlloc is the allocation-regression gate for the
// FARM redirection/targeting path: in steady state, selecting a rebuild
// target — buddy exclusions, in-flight-target exclusions, candidate
// stream walk, and space reservation — must not touch the heap.
func TestFARMPickTargetZeroAlloc(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 3}, 400)
	f := NewFARM(h.env())

	// Put the engine into a realistic steady state: one failure with
	// rebuilds in flight, so the group target lists and disk indexes are
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

// flipFM is a FaultModel whose source reads alternate transient, clean,
// transient, …: every rebuild retries exactly once.
type flipFM struct{ n int }

func (f *flipFM) ProbeRead(sim.Time, int, int) faults.Outcome {
	f.n++
	if f.n%2 == 1 {
		return faults.ReadTransient
	}
	return faults.ReadOK
}
func (f *flipFM) RetryBackoff(int) sim.Time { return 0.25 }
func (f *flipFM) MaxRetries() int           { return 3 }
func (f *flipFM) MaxResourcings() int       { return 3 }

// relose unlinks block ref wherever it lives and reports the loss to e,
// which opens a fresh rebuild of it.
func (h *harness) relose(e Engine, ref cluster.BlockRef) {
	now := h.eng.Now()
	d, _ := h.cl.CorruptBlock(ref)
	e.HandleBlockLoss(now, now, d, int(ref.Group), int(ref.Rep))
}

// growFenced adds n drives to the cluster and to e's tables through
// Grow, then write-fences every drive that was there before, so each
// rebuild from then on lands on a drive that joined mid-run. It returns
// the new drives' ids.
func (h *harness) growFenced(e Engine, n int) []int {
	old := h.cl.NumDisks()
	ids := h.cl.AddDisks(n, float64(h.eng.Now()))
	e.Grow(h.cl.NumDisks())
	for id := 0; id < old; id++ {
		h.cl.MarkReadOnly(id, true)
	}
	return ids
}

// TestRebuildLifecycleZeroAlloc is the allocation gate for the rebuild
// lifecycle. Each cycle loses one block and drives its rebuild to the
// end through one path: submit → complete, redirection, a transient
// retry, a hedge that wins, and park → resume behind a dark rack. Two
// more cycles run on drives that joined through Grow: a winning hedge
// between two new drives, and two rebuilds onto one new drive, the
// second waiting in its queue. Once the slab, the list pool and the
// disk queues are warm, no cycle touches the heap.
func TestRebuildLifecycleZeroAlloc(t *testing.T) {
	ref := cluster.BlockRef{Group: 5, Rep: 0}
	mirror3 := redundancy.Scheme{M: 1, N: 3}
	cases := []struct {
		name string
		// setup builds the engine and returns one lifecycle cycle.
		setup func(t *testing.T) (f *FARM, cycle func())
		// blocks is the number of blocks a cycle rebuilds (0 means 1).
		blocks int
	}{
		{"submit-complete", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			f := NewFARM(h.env())
			return f, func() {
				h.relose(f, ref)
				h.eng.Run()
			}
		}, 0},
		{"redirect", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			f := NewFARM(h.env())
			return f, func() {
				h.relose(f, ref)
				r := f.groupTargets[ref.Group].rb
				old := r.task.Target
				f.redirect(h.eng.Now(), r)
				// The target is alive, so hand its reservation back
				// (redirect assumes a dead target's bytes are gone).
				f.cl.ReleaseTarget(old)
				h.eng.Run()
			}
		}, 0},
		{"transient-retry", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			env := h.env()
			env.Faults = &flipFM{}
			f := NewFARM(env)
			return f, func() {
				h.relose(f, ref)
				h.eng.Run()
			}
		}, 0},
		{"hedge-win", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			env := h.env()
			env.Straggler = StragglerPolicy{Enabled: true}
			f := NewFARM(env)
			// The rebuild reads from the first intact buddy; make it
			// crawl so the hedge, reading the other buddy, wins.
			h.cl.Disks[h.cl.GroupDiskOf(int(ref.Group), 1)].Slowdown = 64
			return f, func() {
				h.relose(f, ref)
				h.eng.Run()
			}
		}, 0},
		{"park-resume", func(t *testing.T) (*FARM, func()) {
			net, err := topology.NewNetwork(topology.Config{Racks: 4})
			if err != nil {
				t.Fatal(err)
			}
			h := newHarnessNet(t, mirror3, 200, net)
			f := NewFARM(h.env())
			return f, func() {
				h.relose(f, ref)
				tgt := f.groupTargets[ref.Group].Target
				rack := net.RackOf(tgt)
				net.SetRackUnreachable(rack, float64(h.eng.Now()))
				f.HandleUnreachable(h.eng.Now(), tgt)
				net.SetRackReachable(rack)
				f.HandleReachable(h.eng.Now(), tgt)
				h.eng.Run()
			}
		}, 0},
		{"hedge-grown", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			env := h.env()
			env.Straggler = StragglerPolicy{Enabled: true}
			f := NewFARM(env)
			grown := h.growFenced(f, 2)
			h.cl.Disks[h.cl.GroupDiskOf(int(ref.Group), 1)].Slowdown = 64
			return f, func() {
				h.relose(f, ref)
				h.eng.Run()
				if d := int(h.cl.GroupDiskOf(int(ref.Group), int(ref.Rep))); d != grown[0] && d != grown[1] {
					t.Fatalf("block rebuilt onto drive %d, want one of the grown %v", d, grown)
				}
			}
		}, 0},
		{"queued-grown", func(t *testing.T) (*FARM, func()) {
			h := newHarness(t, mirror3, 200)
			f := NewFARM(h.env())
			grown := h.growFenced(f, 1)[0]
			other := cluster.BlockRef{Group: 9, Rep: 0}
			return f, func() {
				h.relose(f, ref)
				h.relose(f, other)
				if !h.sched.Busy(grown) || h.sched.QueueLen(grown) != 1 {
					t.Fatalf("grown drive %d: busy %v, queue %d; want busy with one waiting",
						grown, h.sched.Busy(grown), h.sched.QueueLen(grown))
				}
				h.eng.Run()
			}
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, cycle := tc.setup(t)
			for i := 0; i < 20; i++ {
				cycle()
			}
			before := f.tally.BlocksRebuilt
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Fatalf("rebuild lifecycle allocates %v times per cycle, want 0", n)
			}
			// AllocsPerRun runs the cycle once more as its own warm-up.
			if got, want := f.tally.BlocksRebuilt-before, 51*max(tc.blocks, 1); got != want {
				t.Fatalf("rebuilt %d blocks over 51 cycles, want %d", got, want)
			}
			if f.InFlight() != 0 || f.cl.GroupAvailable(int(ref.Group)) != 3 {
				t.Fatalf("cycle left %d rebuilds in flight, group at %d blocks",
					f.InFlight(), f.cl.GroupAvailable(int(ref.Group)))
			}
			tl := f.tally
			switch tc.name {
			case "redirect":
				if tl.Redirections < 51 {
					t.Fatalf("redirections = %d, want one per cycle", tl.Redirections)
				}
			case "transient-retry":
				if tl.RebuildRetries < 51 {
					t.Fatalf("retries = %d, want one per cycle", tl.RebuildRetries)
				}
			case "hedge-win", "hedge-grown":
				if tl.HedgeWins < 51 {
					t.Fatalf("hedge wins = %d, want one per cycle", tl.HedgeWins)
				}
			case "park-resume":
				if tl.ParkedTransfers < 51 {
					t.Fatalf("parked = %d, want one per cycle", tl.ParkedTransfers)
				}
			}
		})
	}
}
