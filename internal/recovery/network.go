package recovery

import (
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file is the engines' network-topology layer: contention-shaped
// transfer durations, cross-rack traffic accounting, and the
// park/resume machinery for rebuilds whose endpoints sit behind a dark
// switch. Everything here is dormant (net == nil, no Shape/Release
// hooks installed) until SetTopology wires a fabric in, so a run
// without topology is byte-identical to a tree without this file.
//
// Parking model: a rebuild whose source or target becomes unreachable
// is *parked*, not abandoned — its scheduler task is cancelled and its
// straggler timers disarmed, but it stays tracked in the disk indexes
// (and keeps its target reservation) so both heals and endpoint deaths
// find it. The single choke point is submitTracked's dark-rack guard:
// whatever path produces an attempt (initial submission, retry,
// re-source, redirection, heal resume), an attempt touching a dark
// rack parks there instead of entering the scheduler.

// SetTopology implements Engine: it installs the run's network fabric
// and arms the scheduler's Shape/Release hooks so every starting
// transfer claims fair-share bandwidth on its path and returns it when
// it ends. A nil fabric restores the flat model bit-for-bit.
func (b *base) SetTopology(net *topology.Network) {
	b.net = net
	if net != nil {
		b.sched.Shape = b.shapeTransfer
		b.sched.Release = b.releaseTransfer
	} else {
		b.sched.Shape = nil
		b.sched.Release = nil
	}
}

// shapeTransfer maps a starting transfer's nominal duration to its
// network-contended duration. Intra-rack transfers never touch the
// fabric and keep their disk-limited duration unchanged; cross-rack
// transfers register a flow on the path and stretch by the ratio of
// the disk-limited rate to the fair-share bottleneck rate when the
// fabric is the slower of the two.
//
//farm:hotpath runs at every transfer start under topology, gated by TestSingleRunAllocCeiling
func (b *base) shapeTransfer(now sim.Time, t *Task) sim.Time {
	share, cross := b.net.BeginFlow(t.Source, t.Target)
	if !cross {
		return t.Duration
	}
	// The disk-limited rate implied by the nominal duration (the same
	// expression noteTransfer uses): BlockBytes over duration-hours.
	mbps := float64(b.cl.BlockBytes) / (float64(t.Duration) * 1e6 * 3600)
	if share > 0 && share < mbps {
		return sim.Time(float64(t.Duration) * (mbps / share))
	}
	return t.Duration
}

// releaseTransfer is shapeTransfer's paired teardown: the scheduler
// fires it exactly once per shaped transfer, at completion or at
// cancellation of a running task.
//
//farm:hotpath runs at every transfer end under topology, gated by TestSingleRunAllocCeiling
func (b *base) releaseTransfer(t *Task) {
	b.net.EndFlow(t.Source, t.Target)
}

// noteCrossRack tallies one completed transfer that crossed the rack
// fabric — the repair traffic the oversubscribed spine carries.
//
//farm:hotpath runs at every rebuild completion, gated by TestSingleRunAllocCeiling
func (b *base) noteCrossRack(src, tgt int) {
	if b.net == nil || b.net.SameRack(src, tgt) {
		return
	}
	b.tally.CrossRackTransfers++
	b.tally.CrossRackBytes += b.cl.BlockBytes
}

// parkTracked parks a tracked rebuild in place: timers disarmed, kept
// in the indexes, target reservation held. The caller has already
// cancelled (or never submitted) the scheduler task. Idempotent.
func (b *base) parkTracked(r *rebuild) {
	if r.parked {
		return
	}
	r.parked = true
	b.spanEndAttempt(r, b.eng.Now())
	b.cancelTimers(r)
	b.tally.ParkedTransfers++
	b.observe(b.eng.Now(), trace.KindRebuildParked, r.task.Group, r.task.Rep, r.task.Target)
}

// park suspends a rebuild whose task may be queued or running (a dark
// rack swallowed its target mid-flight).
func (b *base) park(r *rebuild) {
	if r.parked {
		return
	}
	b.spanEndAttempt(r, b.eng.Now())
	b.sched.Cancel(r.task)
	b.parkTracked(r)
}

// parkOnSource repoints a rebuild at an intact-but-unreachable buddy
// and parks it. The repoint matters: heals resume rebuilds through the
// disk indexes, so a rebuild waiting on a dark buddy must be indexed
// under that buddy — parking it under its old (dead or faulty) source
// would orphan it forever.
func (b *base) parkOnSource(r *rebuild, src int) {
	b.sched.Cancel(r.task)
	if src != r.task.Source {
		b.untrack(r)
		nt := &Task{
			Group:    r.task.Group,
			Rep:      r.task.Rep,
			Source:   src,
			Target:   r.task.Target,
			Duration: b.effDuration(r.baseDur, src, r.task.Target),
		}
		r.task = nt
		b.track(r)
	}
	b.parkTracked(r)
}

// HandleUnreachable implements Engine: disk diskID's rack went dark at
// now. Rebuilds writing to it park (the reservation and the work
// stand; the rack may heal); rebuilds reading from it flee to another
// rack via the regular re-sourcing ladder, which itself parks when
// every intact buddy is dark. Hedges touching the disk are dropped —
// they are best-effort duplicates, never re-driven.
func (b *base) HandleUnreachable(now sim.Time, diskID int) {
	if b.net == nil {
		return
	}
	b.dropHedgesOn(diskID)
	asSource, asTarget := b.rebuildsTouching(diskID)
	for _, r := range asTarget {
		b.park(r)
	}
	for _, r := range asSource {
		// Already-parked rebuilds keep waiting; their source is re-picked
		// at resume time.
		if !r.parked && r.task.Source == diskID {
			b.resource(r)
		}
	}
}

// HandleReachable implements Engine: disk diskID's rack healed at now.
// Every parked rebuild indexed on the disk re-attempts.
func (b *base) HandleReachable(now sim.Time, diskID int) {
	if b.net == nil {
		return
	}
	asSource, asTarget := b.rebuildsTouching(diskID)
	for _, r := range asTarget {
		if r.parked {
			b.resumeParked(now, r)
		}
	}
	for _, r := range asSource {
		if r.parked {
			b.resumeParked(now, r)
		}
	}
}

// resumeParked re-drives one parked rebuild after an endpoint's rack
// healed. The group may have died, the other endpoint may still be
// dark, or the source may need re-picking; whatever survives those
// checks resubmits on a fresh task (the parked task is cancelled and
// may sit stale in a disk FIFO queue — reusing its pointer could alias
// a lazily-removed queue entry).
func (b *base) resumeParked(now sim.Time, r *rebuild) {
	if !r.parked {
		return
	}
	if b.cl.GroupLost(r.task.Group) {
		b.abandon(r)
		return
	}
	if b.net != nil && b.net.DiskUnreachable(r.task.Target) {
		return // target's rack still dark; keep waiting
	}
	if b.cl.ReadOnly(r.task.Target) {
		return // target still write-fenced; keep waiting for the unfence
	}
	src := r.task.Source
	if b.net != nil && b.net.DiskUnreachable(src) {
		// Healed on the target side only: try to flee the dark source.
		src = b.cl.SourceForExcluding(r.task.Group, r.task.Source, r.task.Target)
		if src < 0 {
			return // no reachable buddy yet; keep waiting
		}
	}
	b.sched.Cancel(r.task)
	b.untrack(r)
	if src != r.task.Source {
		b.tally.Resourcings++
		if r.span != nil {
			r.span.Resourcings++
		}
		if b.net != nil && !b.net.SameRack(src, r.task.Source) {
			b.observe(now, trace.KindResourceCrossRack, r.task.Group, r.task.Rep, src)
		}
	}
	nt := &Task{
		Group:    r.task.Group,
		Rep:      r.task.Rep,
		Source:   src,
		Target:   r.task.Target,
		Duration: b.effDuration(r.baseDur, src, r.task.Target),
	}
	r.task = nt
	b.track(r)
	r.parked = false
	b.observe(now, trace.KindRebuildResumed, r.task.Group, r.task.Rep, r.task.Target)
	b.submitTracked(r)
}
