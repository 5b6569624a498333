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
// free list (base.slabFree). Only chunk growth and the first timer of a
// run (bindTimers) allocate.
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
// can fire into the recycled record and no queue still links its tasks.
// Each task is set by setTask before its next use.
//
//farm:hotpath one record per block rebuild, gated by TestRebuildLifecycleZeroAlloc
func (b *base) free(r *rebuild) {
	*r = rebuild{
		rec:  r.rec,
		next: b.slabFree,
	}
	b.slabFree = r
}

// growSlab adds one chunk of records to the free list, in address order.
func (b *base) growSlab() {
	c := make([]rebuild, slabChunk)
	first := len(b.slab) * slabChunk
	b.slab = append(b.slab, c)
	for i := len(c) - 1; i >= 0; i-- {
		c[i].rec = int32(first + i)
		c[i].next = b.slabFree
		b.slabFree = &c[i]
	}
}

// record returns the slab record with index rec.
func (b *base) record(rec int) *rebuild {
	return &b.slab[rec/slabChunk][rec%slabChunk]
}

// bindTimers binds the records' timer handlers unless they are bound;
// they last the engine's lifetime. Binding waits for the first timer a
// record arms, so runs without faults or straggler mitigation never pay
// for it.
func (b *base) bindTimers() {
	if b.onRetry != nil {
		return
	}
	b.onRetry = b.retryTimer
	b.onHedge = b.hedgeTimer
	b.onTimeout = b.timeoutTimer
}

// retryTimer is record rec's "rebuild-retry" event.
func (b *base) retryTimer(now sim.Time, rec int) { b.retryFired(now, b.record(rec)) }

// hedgeTimer is record rec's "rebuild-hedge" event.
func (b *base) hedgeTimer(now sim.Time, rec int) {
	r := b.record(rec)
	r.hedgeEv = sim.Handle{}
	b.maybeHedge(now, r)
}

// timeoutTimer is record rec's "rebuild-timeout" event.
func (b *base) timeoutTimer(now sim.Time, rec int) {
	r := b.record(rec)
	r.timeoutEv = sim.Handle{}
	b.timeoutFired(now, r)
}
