package recovery

import "repro/internal/sim"

// slabChunk is the number of rebuild records allocated at once. A
// paper-scale disk failure opens about 43 rebuilds, so one chunk covers
// a failure and its overlap with the next.
const slabChunk = 64

// newRebuild takes a clean record from the engine's slab for a block
// lost at failedAt whose transfers are timed from baseDur. The slab works
// like the sim arena: records live in fixed-size chunks, so their
// addresses never move, and finished records are recycled through a
// free list (base.slabFree). Only chunk growth and the first use of a
// record's callbacks allocate.
//
//farm:hotpath one record per block rebuild, gated by TestRebuildLifecycleZeroAlloc
func (b *base) newRebuild(failedAt, baseDur sim.Time) *rebuild {
	if b.slabFree == nil {
		b.growSlab()
	}
	r := b.slabFree
	b.slabFree = r.next
	r.next = nil
	r.failedAt, r.baseDur = failedAt, baseDur
	return r
}

// free returns r to the slab at its rebuild's terminal point (rebuilt,
// hedge win or drop). Its timers must already be cancelled — untrack
// does that — and its tasks must be done, cancelled or idle, so nothing
// can fire into the recycled record. Stale queue entries of its tasks
// are harmless: the attempt generation outlives the reset. The rest of
// each task is set by setTask before its next use.
//
//farm:hotpath one record per block rebuild, gated by TestRebuildLifecycleZeroAlloc
func (b *base) free(r *rebuild) {
	*r = rebuild{
		task:      Task{gen: r.task.gen, fire: r.task.fire},
		hedge:     Task{gen: r.hedge.gen, fire: r.hedge.fire},
		onRetry:   r.onRetry,
		onHedge:   r.onHedge,
		onTimeout: r.onTimeout,
		next:      b.slabFree,
	}
	b.slabFree = r
}

// growSlab adds one chunk of records to the free list, in address order.
func (b *base) growSlab() {
	c := make([]rebuild, slabChunk)
	for i := len(c) - 1; i >= 0; i-- {
		c[i].next = b.slabFree
		b.slabFree = &c[i]
	}
}

// bind gives r its timer callbacks unless it already has them; they
// last the record's lifetime. Binding waits for the first timer a
// record arms, so runs without faults or straggler mitigation never pay
// for it.
func (b *base) bind(r *rebuild) {
	if r.onRetry != nil {
		return
	}
	r.onRetry = func(now sim.Time) { b.retryFired(now, r) }
	r.onHedge = func(now sim.Time) {
		r.hedgeEv = sim.Handle{}
		b.maybeHedge(now, r)
	}
	r.onTimeout = func(now sim.Time) {
		r.timeoutEv = sim.Handle{}
		b.timeoutFired(now, r)
	}
}
