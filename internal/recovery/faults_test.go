package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/redundancy"
	"repro/internal/sim"
)

// scriptFM is a deterministic FaultModel for tests: it serves a scripted
// sequence of read outcomes (ReadOK once the script is exhausted, unless
// always is set) with a fixed backoff and explicit caps.
type scriptFM struct {
	outcomes       []faults.Outcome
	always         faults.Outcome // served after the script when alwaysOn
	alwaysOn       bool
	backoff        sim.Time
	maxRetries     int
	maxResourcings int
	probes         int
}

func (s *scriptFM) ProbeRead(now sim.Time, src, group int) faults.Outcome {
	s.probes++
	if len(s.outcomes) > 0 {
		o := s.outcomes[0]
		s.outcomes = s.outcomes[1:]
		return o
	}
	if s.alwaysOn {
		return s.always
	}
	return faults.ReadOK
}

func (s *scriptFM) RetryBackoff(attempt int) sim.Time { return s.backoff }
func (s *scriptFM) MaxRetries() int                   { return s.maxRetries }
func (s *scriptFM) MaxResourcings() int               { return s.maxResourcings }

// tracked counts rebuilds still registered in the engine's disk indexes.
func tracked(b *base) int {
	n := 0
	for _, l := range b.byTarget.lists {
		n += len(l)
	}
	return n
}

// TestTransientFaultRetriesThenSucceeds: two transient faults delay but
// do not derail recovery — every block still rebuilds, with the retries
// counted.
func TestTransientFaultRetriesThenSucceeds(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 200)
	fm := &scriptFM{
		outcomes:       []faults.Outcome{faults.ReadTransient, faults.ReadTransient},
		backoff:        sim.Time(0.25),
		maxRetries:     3,
		maxResourcings: 8,
	}
	env := h.env()
	env.Faults = fm
	f := NewFARM(env)
	lost := h.failAndDetect(f, 0)
	h.eng.Run()
	st := f.tally
	if st.TransientFaults != 2 || st.RebuildRetries != 2 {
		t.Fatalf("faults=%d retries=%d, want 2/2", st.TransientFaults, st.RebuildRetries)
	}
	if st.BlocksRebuilt != len(lost) {
		t.Fatalf("rebuilt %d of %d", st.BlocksRebuilt, len(lost))
	}
	if st.Resourcings != 0 {
		t.Fatalf("unexpected re-sourcings: %d", st.Resourcings)
	}
	if tracked(&f.base) != 0 {
		t.Fatal("rebuilds leaked in the disk indexes")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryCapEscalatesToResourceThenDrops is the graceful-degradation
// acceptance path: with every read faulting transiently forever, each
// rebuild retries up to the cap, re-sources up to the cap, and is then
// abandoned through the DroppedRebuilds path — the run terminates instead of
// spinning.
func TestRetryCapEscalatesToResourceThenDrops(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 60)
	fm := &scriptFM{
		always:         faults.ReadTransient,
		alwaysOn:       true,
		backoff:        sim.Time(0.1),
		maxRetries:     2,
		maxResourcings: 1,
	}
	env := h.env()
	env.Faults = fm
	f := NewFARM(env)
	lost := h.failAndDetect(f, 0)
	if len(lost) == 0 {
		t.Fatal("disk 0 held no blocks")
	}
	h.eng.Run() // must terminate: the caps bound the work
	st := f.tally
	if st.BlocksRebuilt != 0 {
		t.Fatalf("rebuilt %d blocks under always-faulting reads", st.BlocksRebuilt)
	}
	if st.DroppedRebuilds != len(lost) {
		t.Fatalf("dropped %d of %d", st.DroppedRebuilds, len(lost))
	}
	// Per rebuild: (maxRetries) retries per source, (maxResourcings+1)
	// sources tried before abandonment.
	wantRetries := len(lost) * fm.maxRetries * (fm.maxResourcings + 1)
	if st.RebuildRetries != wantRetries {
		t.Fatalf("retries = %d, want %d", st.RebuildRetries, wantRetries)
	}
	if st.Resourcings != len(lost)*fm.maxResourcings {
		t.Fatalf("resourcings = %d, want %d", st.Resourcings, len(lost)*fm.maxResourcings)
	}
	if tracked(&f.base) != 0 {
		t.Fatal("abandoned rebuilds leaked in the disk indexes")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLatentOutcomeForcesResource: a latent source fault makes the engine
// switch to a different buddy (counted as a re-sourcing) and still finish.
func TestLatentOutcomeForcesResource(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 4, N: 6}, 60)
	fm := &scriptFM{
		outcomes:       []faults.Outcome{faults.ReadLatent},
		maxRetries:     3,
		maxResourcings: 8,
	}
	env := h.env()
	env.Faults = fm
	f := NewFARM(env)
	lost := h.failAndDetect(f, 0)
	h.eng.Run()
	st := f.tally
	if st.Resourcings != 1 {
		t.Fatalf("resourcings = %d, want 1", st.Resourcings)
	}
	if st.BlocksRebuilt != len(lost) {
		t.Fatalf("rebuilt %d of %d", st.BlocksRebuilt, len(lost))
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingRetryCancelledByTargetDeath covers the stale-retry hazard: a
// rebuild waiting out a transient-fault backoff whose target dies must be
// redirected exactly once — the pending backed-off resubmission must not
// fire afterwards and resurrect the old task.
func TestPendingRetryCancelledByTargetDeath(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 120)
	fm := &scriptFM{
		outcomes:       []faults.Outcome{faults.ReadTransient},
		backoff:        sim.Time(1000), // far beyond every other event
		maxRetries:     3,
		maxResourcings: 8,
	}
	env := h.env()
	env.Faults = fm
	f := NewFARM(env)
	lost := h.failAndDetect(f, 0)
	// Step until the scripted transient fires: one rebuild is now parked
	// in its backoff window.
	for f.tally.TransientFaults == 0 {
		if !h.eng.Step() {
			t.Fatal("queue drained before the transient fault fired")
		}
	}
	// Find the parked rebuild and kill its target mid-backoff.
	var victim int = -1
	for target, list := range f.byTarget.lists {
		for _, r := range list {
			if r.retryEv.Valid() {
				victim = target
			}
		}
	}
	if victim < 0 {
		t.Fatal("no rebuild holds a pending retry event")
	}
	h.cl.FailDisk(victim, float64(h.eng.Now()))
	f.HandleFailure(h.eng.Now(), victim)
	h.eng.Run()
	st := f.tally
	// Every block of disk 0 must be accounted for exactly once; the
	// victim disk's own blocks were never handed to the engine, so the
	// only flows are rebuilt or dropped-with-lost-group.
	if st.BlocksRebuilt+st.DroppedRebuilds != len(lost) {
		t.Fatalf("rebuilt %d + dropped %d != lost %d", st.BlocksRebuilt, st.DroppedRebuilds, len(lost))
	}
	if st.Redirections == 0 {
		t.Fatal("target death during backoff did not redirect")
	}
	if tracked(&f.base) != 0 {
		t.Fatal("rebuilds leaked in the disk indexes")
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSparePoolQueuesWhenExhausted: with one spare on the shelf, the
// second disk failure finds the pool empty and its recovery work queues
// until the replenishment drive arrives — graceful degradation instead
// of dropped work.
func TestSparePoolQueuesWhenExhausted(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 200)
	e := NewSpareDisk(h.env(), h.spawn, 1)
	lost0 := h.failAndDetect(e, 0)
	lost1 := h.failAndDetect(e, 1)
	if len(lost0) == 0 || len(lost1) == 0 {
		t.Fatal("test disks held no blocks")
	}
	if e.tally.QueuedSpareJobs == 0 {
		t.Fatal("second failure did not queue for the exhausted pool")
	}
	if free, queued := e.SparePoolFree(); free != 0 || queued != 1 {
		t.Fatalf("pool free=%d queued=%d, want 0/1", free, queued)
	}
	h.eng.Run()
	if _, queued := e.SparePoolFree(); queued != 0 {
		t.Fatalf("queue not drained: %d items", queued)
	}
	st := e.tally
	// Both disks' blocks resolve: rebuilt, or dropped because the group
	// lost both replicas across the two failures.
	if st.BlocksRebuilt+st.DroppedRebuilds < len(lost0)+len(lost1) {
		t.Fatalf("rebuilt %d + dropped %d < lost %d", st.BlocksRebuilt, st.DroppedRebuilds,
			len(lost0)+len(lost1))
	}
	if st.SparesUsed != 2 {
		t.Fatalf("spares used = %d, want 2", st.SparesUsed)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareHandleBlockLossRepairsInPlace: a discovered latent error on a
// live drive is rewritten onto the same drive (sector remap semantics).
func TestSpareHandleBlockLossRepairsInPlace(t *testing.T) {
	h := newHarness(t, redundancy.Scheme{M: 1, N: 2}, 100)
	e := NewSpareDisk(h.env(), h.spawn, 0)
	// Pick a resident block and corrupt it.
	var group, rep, diskID int = -1, -1, -1
	for id := 0; id < h.cl.NumDisks(); id++ {
		if blocks := h.cl.BlocksOn(id); len(blocks) > 0 {
			group, rep, diskID = int(blocks[0].Group), int(blocks[0].Rep), id
			break
		}
	}
	if group < 0 {
		t.Fatal("no resident blocks")
	}
	h.cl.CorruptBlock(cluster.BlockRef{Group: int32(group), Rep: int32(rep)})
	e.HandleBlockLoss(0, 0, diskID, group, rep)
	h.eng.Run()
	if e.tally.BlocksRebuilt != 1 {
		t.Fatalf("rebuilt %d, want 1", e.tally.BlocksRebuilt)
	}
	if got := int(h.cl.GroupDiskOf(group, rep)); got != diskID {
		t.Fatalf("repair landed on disk %d, want in-place on %d", got, diskID)
	}
	if err := h.cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
