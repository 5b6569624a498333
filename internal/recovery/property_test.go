package recovery

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TestQuickSchedulerNeverOverlaps drives the scheduler with random task
// graphs and checks the core resource invariant: no disk ever serves two
// transfers at once, every non-cancelled task completes exactly once, and
// completion times respect durations.
func TestQuickSchedulerNeverOverlaps(t *testing.T) {
	type interval struct {
		start, end sim.Time
		src, tgt   int
	}
	f := func(seed uint64, n8 uint8) bool {
		r := rng.New(seed)
		numDisks := 6
		numTasks := int(n8%40) + 2
		eng := sim.New()
		s := NewScheduler(eng, numDisks)
		var done []interval
		completed := 0
		for i := 0; i < numTasks; i++ {
			src := r.Intn(numDisks)
			tgt := r.Intn(numDisks - 1)
			if tgt >= src {
				tgt++
			}
			dur := sim.Time(r.Float64()*5 + 0.1)
			task := &Task{Group: i, Source: src, Target: tgt, Duration: dur}
			s.Submit(task, func(now sim.Time, tk *Task) {
				completed++
				done = append(done, interval{start: now - tk.Duration, end: now,
					src: tk.Source, tgt: tk.Target})
			})
		}
		eng.Run()
		if completed != numTasks || s.Completed != numTasks {
			return false
		}
		// Per-disk intervals must not overlap (strictly, open intervals).
		for d := 0; d < numDisks; d++ {
			var ivs []interval
			for _, iv := range done {
				if iv.src == d || iv.tgt == d {
					ivs = append(ivs, iv)
				}
			}
			for i := 0; i < len(ivs); i++ {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.start < b.end-1e-12 && b.start < a.end-1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickFARMEndToEnd drives random multi-failure scenarios through the
// FARM engine and checks cluster invariants plus conservation: every
// group is either fully restored, still degraded-but-recoverable, or
// latched lost.
func TestQuickFARMEndToEnd(t *testing.T) {
	f := func(seed uint64, kills8 uint8) bool {
		h := quickHarness(seed)
		f := NewFARM(h.cl, h.eng, h.sched, FixedBW(16), new(obs.Tally))
		kills := int(kills8%5) + 1
		r := rng.New(seed)
		for k := 0; k < kills; k++ {
			id := r.Intn(h.cl.NumDisks())
			if h.cl.Disks[id].State != disk.Alive {
				continue
			}
			now := h.eng.Now()
			lost, _ := h.cl.FailDisk(id, float64(now))
			f.HandleFailure(now, id)
			f.HandleDetection(now, id, now, lost)
			// Advance a random amount between kills.
			h.eng.RunUntil(now + sim.Time(r.Float64()*0.2))
		}
		h.eng.Run()
		if err := h.cl.CheckInvariants(); err != nil {
			return false
		}
		for g := 0; g < h.cl.GroupCount(); g++ {
			if h.cl.GroupLost(g) {
				continue
			}
			// Non-lost groups must be fully restored once the queue
			// drains (all rebuilds completed or redirected to completion),
			// unless no eligible target existed (tiny cluster corner).
			if int(h.cl.GroupAvailable(g)) < h.cl.Cfg.Scheme.M {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// quickHarness builds a deterministic small cluster without *testing.T.
func quickHarness(seed uint64) *harness {
	cfg := cluster.Config{
		Scheme:             redundancy.Scheme{M: 1, N: 3},
		GroupBytes:         10 * disk.GB,
		NumGroups:          120,
		DiskModel:          disk.DefaultModel(),
		InitialUtilization: 0.4,
		PlacementSeed:      seed,
		ExtraDisks:         12,
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		panic(err)
	}
	eng := sim.New()
	return &harness{cl: cl, eng: eng, sched: NewScheduler(eng, cl.NumDisks())}
}
