package recovery

import (
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SpareDisk is the traditional RAID baseline the paper compares against:
// when a drive fails, a fresh dedicated spare is activated and *every*
// block of the failed drive is rebuilt onto that one spare. The spare's
// single recovery slot serializes the transfers, so the window of
// vulnerability covers the whole disk rebuild ("reconstruction requests
// queue up at the single recovery target", §3.2).
//
// The paper assumes an inexhaustible supply of spares. With a finite
// pool configured (ConfigureSparePool), activations beyond the pool do
// not fail: the work queues FIFO until a replenishment drive arrives,
// degrading gracefully at the cost of longer windows of vulnerability.
type SpareDisk struct {
	base
	spawn DiskSpawner
	// spareFor maps a failed disk to the spare rebuilding it, and
	// spareRole maps a spare back to its failed disk, so a spare failure
	// can re-drive the remaining work onto a new spare.
	spareFor  map[int]int
	spareRole map[int]int
	// pool is the number of spare drives available for immediate
	// activation; -1 (the default) models the paper's unlimited supply.
	pool int
	// replenish is the lead time for a consumed spare's replacement.
	replenish sim.Time
	// waiting queues recovery work that found the pool empty.
	waiting []spareWork
}

// pendingBlock is one block rebuild awaiting a spare.
type pendingBlock struct {
	group, rep int
	failedAt   sim.Time
	// span is the block's lifecycle span carried across the wait (nil
	// when spans are disabled); parkedAt is when the block joined the
	// queue — the wait folds into the span's queue-wait phase at drain.
	span     *obs.Span
	parkedAt sim.Time
}

// spareWork is the queued recovery work of one failed disk.
type spareWork struct {
	failed int
	blocks []pendingBlock
}

// NewSpareDisk returns the traditional engine. spawn provisions fresh
// spare drives on demand (the simulator schedules their failures). bw
// supplies the per-disk recovery bandwidth (use FixedBW for the paper's
// base model); tally receives the engine's event counters.
func NewSpareDisk(cl *cluster.Cluster, eng *sim.Engine, sched *Scheduler, bw workload.BandwidthModel, spawn DiskSpawner, tally *obs.Tally) *SpareDisk {
	return &SpareDisk{
		base:      newBase(cl, eng, sched, bw, tally),
		spawn:     spawn,
		spareFor:  make(map[int]int),
		spareRole: make(map[int]int),
		pool:      -1,
	}
}

// Name implements Engine.
func (s *SpareDisk) Name() string { return "spare" }

// ConfigureSparePool bounds the dedicated-spare supply: size drives are
// on the shelf, and each consumed spare is reordered with the given
// lead time. size <= 0 restores the unlimited model.
func (s *SpareDisk) ConfigureSparePool(size int, replenishHours float64) {
	if size <= 0 {
		s.pool = -1
		return
	}
	s.pool = size
	s.replenish = sim.Time(replenishHours)
}

// SparePoolFree returns the spares available for immediate activation
// (-1 when unlimited) and the queued work items (test hook).
func (s *SpareDisk) SparePoolFree() (free, queued int) {
	return s.pool, len(s.waiting)
}

// takeSpare consumes one spare from the pool, scheduling its
// replenishment. Returns false when the pool is empty.
func (s *SpareDisk) takeSpare() bool {
	if s.pool < 0 {
		return true
	}
	if s.pool == 0 {
		return false
	}
	s.pool--
	s.eng.After(s.replenish, "spare-replenish", func(at sim.Time) {
		s.pool++
		s.drainSpareQueue(at)
	})
	return true
}

// queueSpareWork parks recovery work until a spare arrives.
func (s *SpareDisk) queueSpareWork(now sim.Time, failed int, blocks []pendingBlock) {
	s.tally.QueuedSpareJobs++
	s.waiting = append(s.waiting, spareWork{failed: failed, blocks: blocks})
	s.observe(now, trace.KindSpareQueued, -1, -1, failed)
}

// drainSpareQueue activates spares for queued work, FIFO, as the pool
// allows.
func (s *SpareDisk) drainSpareQueue(now sim.Time) {
	for len(s.waiting) > 0 && s.takeSpare() {
		w := s.waiting[0]
		s.waiting = s.waiting[1:]
		spare := s.activateSpare(now, w.failed)
		for _, pb := range w.blocks {
			if pb.span != nil {
				// Hours spent waiting for a spare are queue wait.
				pb.span.QueueWait += float64(now - pb.parkedAt)
			}
			// startRebuild drops blocks whose group died while waiting.
			s.startRebuild(pb.failedAt, pb.group, pb.rep, spare, pb.span)
		}
	}
}

// HandleDetection activates a spare for the failed disk and queues every
// lost block onto it; with an exhausted pool the work waits instead.
func (s *SpareDisk) HandleDetection(now sim.Time, diskID int, failedAt sim.Time, lost []cluster.BlockRef) {
	if len(lost) == 0 {
		return // nothing resided on the drive; no spare needed
	}
	if !s.takeSpare() {
		blocks := make([]pendingBlock, len(lost))
		for i, ref := range lost {
			blocks[i] = pendingBlock{
				group: int(ref.Group), rep: int(ref.Rep), failedAt: failedAt,
				span: s.spanOpen(int(ref.Group), int(ref.Rep), failedAt), parkedAt: now,
			}
		}
		s.queueSpareWork(now, diskID, blocks)
		return
	}
	spare := s.activateSpare(now, diskID)
	for _, ref := range lost {
		s.startRebuild(failedAt, int(ref.Group), int(ref.Rep), spare, nil)
	}
}

// activateSpare provisions the dedicated replacement drive for failed.
// The caller must have consumed a pool slot via takeSpare.
func (s *SpareDisk) activateSpare(now sim.Time, failed int) int {
	spare := s.spawn(now)
	s.sched.Grow(s.cl.NumDisks())
	s.spareFor[failed] = spare
	s.spareRole[spare] = failed
	s.tally.SparesUsed++
	return spare
}

// startRebuild queues one block onto the designated spare. sp, when
// non-nil, is an existing lifecycle span carried over from an earlier
// attempt (spare death, spare-pool wait); nil opens a fresh one when
// spans are enabled.
func (s *SpareDisk) startRebuild(failedAt sim.Time, group, rep, spare int, sp *obs.Span) {
	if sp == nil {
		sp = s.spanOpen(group, rep, failedAt)
	}
	r := &rebuild{failedAt: failedAt, baseDur: s.blockDuration(), span: sp}
	if s.cl.GroupLost(group) {
		s.tally.DroppedRebuilds++
		s.spanDropped(r, s.eng.Now())
		return
	}
	src := s.cl.SourceFor(group, spare)
	if src < 0 && s.net != nil {
		src = s.cl.AnySourceFor(group, spare)
	}
	if src < 0 {
		s.tally.DroppedRebuilds++
		s.spanDropped(r, s.eng.Now())
		return
	}
	if !s.cl.ReserveTarget(spare) {
		// The spare cannot be full in the paper's regime (a fresh drive
		// absorbing at most one failed drive's data); treat as dropped.
		s.tally.DroppedRebuilds++
		s.spanDropped(r, s.eng.Now())
		return
	}
	r.task = &Task{
		Group:    group,
		Rep:      rep,
		Source:   src,
		Target:   spare,
		Duration: s.effDuration(r.baseDur, src, spare),
	}
	s.track(r)
	s.submitTracked(r)
}

// HandleBlockLoss repairs a single damaged replica (a discovered latent
// sector error): traditional systems remap the bad sector and rewrite
// the block in place, so the repair targets the same drive when it is
// alive with space, falling back to any eligible drive otherwise.
func (s *SpareDisk) HandleBlockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int) {
	s.blockLoss(now, failedAt, diskID, group, rep, nil)
}

// blockLoss is HandleBlockLoss with an optional carried-over span (the
// target-death restart path re-drives repairs through here without
// opening a second span for the same block).
func (s *SpareDisk) blockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int, sp *obs.Span) {
	if sp == nil {
		sp = s.spanOpen(group, rep, failedAt)
	}
	r := &rebuild{failedAt: failedAt, baseDur: s.blockDuration(), span: sp}
	if s.cl.GroupLost(group) {
		s.tally.DroppedRebuilds++
		s.spanDropped(r, now)
		return
	}
	target := -1
	if s.cl.Disks[diskID].State == disk.Alive && s.cl.ReserveTarget(diskID) {
		target = diskID
	} else {
		t, _, ok := s.pickTarget(group, rep, 0)
		if !ok {
			s.tally.DroppedRebuilds++
			s.spanDropped(r, now)
			return
		}
		target = t
	}
	src := s.cl.SourceFor(group, target)
	if src < 0 && s.net != nil {
		src = s.cl.AnySourceFor(group, target)
	}
	if src < 0 {
		s.cl.ReleaseTarget(target)
		s.tally.DroppedRebuilds++
		s.spanDropped(r, now)
		return
	}
	r.task = &Task{
		Group:    group,
		Rep:      rep,
		Source:   src,
		Target:   target,
		Duration: s.effDuration(r.baseDur, src, target),
	}
	s.track(r)
	s.submitTracked(r)
}

// HandleFailure reacts to any disk death: if it was an active spare, the
// outstanding work restarts on a new spare (or queues for one); rebuilds
// sourced from the dead disk are re-sourced.
func (s *SpareDisk) HandleFailure(now sim.Time, diskID int) {
	s.dropHedgesOn(diskID)
	if failed, ok := s.spareRole[diskID]; ok {
		delete(s.spareRole, diskID)
		delete(s.spareFor, failed)
		asSource, asTarget := s.rebuildsTouching(diskID)
		if len(asTarget) > 0 {
			if s.takeSpare() {
				replacement := s.activateSpare(now, failed)
				for _, r := range asTarget {
					s.spanEndAttempt(r, now)
					s.sched.Cancel(r.task)
					s.untrack(r)
					if s.cl.GroupLost(r.task.Group) {
						s.tally.DroppedRebuilds++
						s.spanDropped(r, now)
						continue
					}
					s.tally.Redirections++
					if r.span != nil {
						r.span.Redirections++
					}
					s.startRebuild(r.failedAt, r.task.Group, r.task.Rep, replacement, r.span)
				}
			} else {
				// Pool exhausted mid-recovery: park the remaining work.
				blocks := make([]pendingBlock, 0, len(asTarget))
				for _, r := range asTarget {
					s.spanEndAttempt(r, now)
					s.sched.Cancel(r.task)
					s.untrack(r)
					if s.cl.GroupLost(r.task.Group) {
						s.tally.DroppedRebuilds++
						s.spanDropped(r, now)
						continue
					}
					s.tally.Redirections++
					if r.span != nil {
						r.span.Redirections++
					}
					blocks = append(blocks, pendingBlock{
						group: r.task.Group, rep: r.task.Rep, failedAt: r.failedAt,
						span: r.span, parkedAt: now})
				}
				if len(blocks) > 0 {
					s.queueSpareWork(now, failed, blocks)
				}
			}
		}
		for _, r := range asSource {
			if r.task.Source == diskID {
				s.resource(r)
			}
		}
		return
	}
	asSource, asTarget := s.rebuildsTouching(diskID)
	// A regular data disk died. Rebuilds targeting it exist only for
	// latent-error repairs (in place or redirected); restart each on a
	// surviving drive so the replica is not silently forgotten.
	for _, r := range asTarget {
		s.spanEndAttempt(r, now)
		s.sched.Cancel(r.task)
		s.untrack(r)
		if s.cl.GroupLost(r.task.Group) {
			s.tally.DroppedRebuilds++
			s.spanDropped(r, now)
			continue
		}
		s.tally.Redirections++
		if r.span != nil {
			r.span.Redirections++
		}
		s.blockLoss(now, r.failedAt, diskID, r.task.Group, r.task.Rep, r.span)
	}
	for _, r := range asSource {
		if r.task.Source == diskID {
			s.resource(r)
		}
	}
}

// SpareOf returns the active spare for a failed disk, or -1 (test hook).
func (s *SpareDisk) SpareOf(failed int) int {
	if sp, ok := s.spareFor[failed]; ok {
		return sp
	}
	return -1
}
