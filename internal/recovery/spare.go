package recovery

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SpareDisk is the traditional RAID baseline the paper compares against:
// when a drive fails, a fresh dedicated spare is activated and *every*
// block of the failed drive is rebuilt onto that one spare. The spare's
// single recovery slot serializes the transfers, so the window of
// vulnerability covers the whole disk rebuild ("reconstruction requests
// queue up at the single recovery target", §3.2).
//
// The paper assumes an inexhaustible supply of spares. With a finite
// pool configured (NewSpareDisk's pool), activations beyond the pool do
// not fail: the work queues FIFO until a replenishment drive arrives,
// degrading gracefully at the cost of longer windows of vulnerability.
type SpareDisk struct {
	base
	spawn DiskSpawner
	// spareRole maps an active spare to the failed disk it rebuilds, so
	// a spare failure can re-drive the remaining work onto a new spare.
	spareRole map[int]int
	// pool is the number of spare drives available for immediate
	// activation; -1 (the default) models the paper's unlimited supply.
	pool int
	// waiting queues recovery work that found the pool empty.
	waiting []spareWork
	// freeBlocks holds the block lists of drained waits, for the next
	// wait to reuse.
	freeBlocks [][]pendingBlock
	// replenishFn is the "spare-replenish" handler, bound once.
	replenishFn func(now sim.Time)
}

// pendingBlock is one block rebuild awaiting a spare.
type pendingBlock struct {
	group, rep int
	failedAt   sim.Time
	// id and span are the block's rebuild, opened at queueing and
	// carried across the wait; parkedAt is when the block joined the
	// queue — the wait folds into the span's queue-wait phase at drain.
	id       int32
	span     *obs.Span
	parkedAt sim.Time
}

// spareWork is the queued recovery work of one failed disk.
type spareWork struct {
	failed int
	blocks []pendingBlock
}

// spareReplenishHours is the lead time for a consumed spare's
// replacement drive.
const spareReplenishHours = 24

// NewSpareDisk returns the traditional engine working in env. spawn
// provisions fresh spare drives on demand (the simulator schedules their
// failures). pool bounds the spare supply: pool drives are on the shelf,
// and each consumed spare is reordered with a lead time of
// spareReplenishHours; pool <= 0 is the paper's unlimited supply.
func NewSpareDisk(env Env, spawn DiskSpawner, pool int) *SpareDisk {
	s := &SpareDisk{
		spawn:     spawn,
		spareRole: make(map[int]int),
		pool:      -1,
	}
	if pool > 0 {
		s.pool = pool
	}
	s.replenishFn = s.replenish
	s.init(env)
	return s
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
	s.eng.After(spareReplenishHours, "spare-replenish", s.replenishFn)
	return true
}

// replenish shelves one reordered spare and hands it to queued work.
func (s *SpareDisk) replenish(now sim.Time) {
	s.pool++
	s.drainSpareQueue(now)
}

// blockList returns an empty list of pending blocks with room for n,
// reusing a drained wait's list when one is free.
func (s *SpareDisk) blockList(n int) []pendingBlock {
	if k := len(s.freeBlocks); k > 0 {
		b := s.freeBlocks[k-1]
		s.freeBlocks[k-1] = nil
		s.freeBlocks = s.freeBlocks[:k-1]
		return slices.Grow(b, n)
	}
	return make([]pendingBlock, 0, n)
}

// queueSpareWork parks recovery work until a spare arrives.
func (s *SpareDisk) queueSpareWork(now sim.Time, failed int, blocks []pendingBlock) {
	s.tally.QueuedSpareJobs++
	s.waiting = append(s.waiting, spareWork{failed: failed, blocks: blocks})
	s.emit(trace.Event{Time: float64(now), Kind: trace.KindSpareQueued, Group: -1, Rep: -1, Disk: int32(failed)})
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
			s.startRebuild(pb.failedAt, pb.group, pb.rep, spare, pb.id, pb.span)
		}
		clear(w.blocks)
		s.freeBlocks = append(s.freeBlocks, w.blocks[:0])
	}
}

// HandleDetection activates a spare for the failed disk and queues every
// lost block onto it; with an exhausted pool the work waits instead.
func (s *SpareDisk) HandleDetection(now sim.Time, diskID int, failedAt sim.Time, lost []cluster.BlockRef) {
	if len(lost) == 0 {
		return // nothing resided on the drive; no spare needed
	}
	if !s.takeSpare() {
		blocks := s.blockList(len(lost))
		for _, ref := range lost {
			pb := pendingBlock{group: int(ref.Group), rep: int(ref.Rep), failedAt: failedAt, parkedAt: now}
			pb.id, pb.span = s.open(pb.group, pb.rep, failedAt)
			blocks = append(blocks, pb)
		}
		s.queueSpareWork(now, diskID, blocks)
		return
	}
	spare := s.activateSpare(now, diskID)
	for _, ref := range lost {
		s.startRebuild(failedAt, int(ref.Group), int(ref.Rep), spare, 0, nil)
	}
}

// activateSpare provisions the dedicated replacement drive for failed.
// The caller must have consumed a pool slot via takeSpare.
func (s *SpareDisk) activateSpare(now sim.Time, failed int) int {
	spare := s.spawn(now)
	s.Grow(s.cl.NumDisks())
	s.spareRole[spare] = failed
	s.tally.SparesUsed++
	return spare
}

// startRebuild queues one block onto the designated spare. A non-zero
// id names the block's rebuild (with its span sp) carried over from an
// earlier attempt (spare death, spare-pool wait); id 0 opens a fresh one.
func (s *SpareDisk) startRebuild(failedAt sim.Time, group, rep, spare int, id int32, sp *obs.Span) {
	if id == 0 {
		id, sp = s.open(group, rep, failedAt)
	}
	r := s.newRebuild(failedAt, s.blockDuration())
	r.id, r.span = id, sp
	src := -1
	if !s.cl.GroupLost(group) {
		src = s.cl.RebuildSourceFor(group, spare)
	}
	// A spare cannot be full in the paper's regime (a fresh drive
	// absorbing at most one failed drive's data); treat that as dropped
	// like a lost group or a missing source.
	if src < 0 || !s.cl.ReserveTarget(spare) {
		s.drop(s.eng.Now(), r, group, rep, spare)
		return
	}
	s.setTask(&r.task, r, group, rep, src, spare)
	s.track(r)
	s.submitTracked(r)
}

// HandleBlockLoss repairs a single damaged replica (a discovered latent
// sector error): traditional systems remap the bad sector and rewrite
// the block in place, so the repair targets the same drive when it is
// alive with space, falling back to any eligible drive otherwise.
func (s *SpareDisk) HandleBlockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int) {
	s.blockLoss(now, failedAt, diskID, group, rep, 0, nil)
}

// blockLoss is HandleBlockLoss with an optional carried-over rebuild id
// and span (the target-death restart path re-drives repairs through here
// without opening a second rebuild for the same block).
func (s *SpareDisk) blockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int, id int32, sp *obs.Span) {
	if id == 0 {
		id, sp = s.open(group, rep, failedAt)
	}
	r := s.newRebuild(failedAt, s.blockDuration())
	r.id, r.span = id, sp
	if s.cl.GroupLost(group) {
		s.drop(now, r, group, rep, -1)
		return
	}
	target := -1
	if s.cl.Disks[diskID].State == disk.Alive && s.cl.ReserveTarget(diskID) {
		target = diskID
	} else {
		t, _, ok := s.pickTarget(group, rep, 0)
		if !ok {
			s.drop(now, r, group, rep, -1)
			return
		}
		target = t
	}
	src := s.cl.RebuildSourceFor(group, target)
	if src < 0 {
		s.cl.ReleaseTarget(target)
		s.drop(now, r, group, rep, target)
		return
	}
	s.setTask(&r.task, r, group, rep, src, target)
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
		asSource, asTarget := s.rebuildsTouching(diskID)
		if len(asTarget) > 0 {
			if s.takeSpare() {
				replacement := s.activateSpare(now, failed)
				for _, r := range asTarget {
					if s.liftDeadTarget(now, r) {
						s.startRebuild(r.failedAt, r.task.Group, r.task.Rep, replacement, r.id, r.span)
						s.free(r)
					}
				}
			} else {
				// Pool exhausted mid-recovery: park the remaining work.
				blocks := s.blockList(len(asTarget))
				for _, r := range asTarget {
					if s.liftDeadTarget(now, r) {
						blocks = append(blocks, pendingBlock{
							group: r.task.Group, rep: r.task.Rep, failedAt: r.failedAt,
							id: r.id, span: r.span, parkedAt: now})
						s.free(r)
					}
				}
				if len(blocks) > 0 {
					s.queueSpareWork(now, failed, blocks)
				} else {
					s.freeBlocks = append(s.freeBlocks, blocks)
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
		if s.liftDeadTarget(now, r) {
			s.blockLoss(now, r.failedAt, diskID, r.task.Group, r.task.Rep, r.id, r.span)
			s.free(r)
		}
	}
	for _, r := range asSource {
		if r.task.Source == diskID {
			s.resource(r)
		}
	}
}

// liftDeadTarget stops a rebuild whose target died and reports whether
// it restarts elsewhere (counted as a redirection); a rebuild whose
// group is lost drops instead. A restart carries r's id and span into a
// new record, after which the caller frees r.
func (s *SpareDisk) liftDeadTarget(now sim.Time, r *rebuild) bool {
	s.spanEndAttempt(r, now)
	s.sched.Cancel(&r.task)
	s.untrack(r)
	if s.cl.GroupLost(r.task.Group) {
		s.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
		return false
	}
	s.tally.Redirections++
	if r.span != nil {
		r.span.Redirections++
	}
	return true
}
