package recovery

import (
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/sim"
)

// FARM is the paper's FAst Recovery Mechanism: declustered, parallel
// rebuild. Each lost block is re-created on a disk drawn from the group's
// placement candidate stream, subject to the paper's target rules:
// (a) alive, (b) holding no other block of the group, (c) with space.
// Targets are spread across the whole cluster, so rebuilds proceed in
// parallel and the window of vulnerability is roughly one group-rebuild
// long instead of one disk-rebuild long.
type FARM struct {
	base
}

// NewFARM returns a FARM engine working in env.
func NewFARM(env Env) *FARM {
	f := new(FARM)
	f.init(env)
	return f
}

// HandleDetection schedules one parallel rebuild per lost block.
func (f *FARM) HandleDetection(now sim.Time, diskID int, failedAt sim.Time, lost []cluster.BlockRef) {
	for _, ref := range lost {
		f.startRebuild(failedAt, int(ref.Group), int(ref.Rep))
	}
}

// startRebuild selects target and source for one block and submits the
// transfer. Returns silently if the group is already beyond repair or
// has no source: those drops are tallied only, since no rebuild (id,
// span) was opened for them.
func (f *FARM) startRebuild(failedAt sim.Time, group, rep int) {
	if f.cl.GroupLost(group) {
		f.tally.DroppedRebuilds++
		return
	}
	// A source behind a dark switch parks the rebuild (submitTracked's
	// guard) instead of dropping it.
	src := f.cl.RebuildSourceFor(group, -1)
	if src < 0 {
		f.tally.DroppedRebuilds++
		return
	}
	r := f.newRebuild(failedAt, f.blockDuration())
	r.id, r.span = f.open(group, rep, failedAt)
	target, trial, ok := f.pickTarget(group, rep, 0)
	if !ok {
		// Nowhere to put the block (cluster effectively full/dead);
		// leave the group degraded.
		f.drop(f.eng.Now(), r, group, rep, -1)
		return
	}
	r.trial = trial
	f.setTask(&r.task, r, group, rep, src, target)
	f.track(r)
	f.submitTracked(r)
}

// HandleBlockLoss recovers a single damaged replica (a discovered latent
// sector error): under FARM it is just another declustered block rebuild,
// targeted anywhere in the cluster.
func (f *FARM) HandleBlockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int) {
	f.startRebuild(failedAt, group, rep)
}

// HandleFailure redirects rebuilds writing to the dead disk and re-sources
// rebuilds reading from it.
func (f *FARM) HandleFailure(now sim.Time, diskID int) {
	f.dropHedgesOn(diskID)
	asSource, asTarget := f.rebuildsTouching(diskID)
	for _, r := range asTarget {
		f.redirect(now, r)
	}
	for _, r := range asSource {
		// Skip rebuilds already fixed by redirection (task replaced).
		if r.task.Source == diskID {
			f.resource(r)
		}
	}
}

// redirect moves a rebuild to the next candidate target after its target
// died mid-rebuild — the paper's recovery redirection. The transfer
// restarts from scratch on the new disk.
func (f *FARM) redirect(now sim.Time, r *rebuild) {
	f.spanEndAttempt(r, now)
	f.sched.Cancel(&r.task)
	f.untrack(r)
	// No ReleaseTarget: the dead disk's byte accounting is already gone.
	if f.cl.GroupLost(r.task.Group) {
		f.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
		return
	}
	target, trial, ok := f.pickTarget(r.task.Group, r.task.Rep, r.trial+1)
	if !ok {
		f.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
		return
	}
	src := r.task.Source
	if f.cl.Disks[src].State != disk.Alive || src == target {
		src = f.cl.RebuildSourceFor(r.task.Group, target)
		if src < 0 {
			f.cl.ReleaseTarget(target)
			f.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
			return
		}
	}
	f.setTask(&r.task, r, r.task.Group, r.task.Rep, src, target)
	r.trial = trial
	f.track(r)
	f.tally.Redirections++
	if r.span != nil {
		r.span.Redirections++
	}
	f.submitTracked(r)
}
