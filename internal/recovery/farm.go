package recovery

import (
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
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

// NewFARM returns a FARM engine over the given cluster. bw supplies the
// per-disk recovery bandwidth (use FixedBW for the paper's base model);
// tally receives the engine's event counters.
func NewFARM(cl *cluster.Cluster, eng *sim.Engine, sched *Scheduler, bw workload.BandwidthModel, tally *obs.Tally) *FARM {
	return &FARM{base: newBase(cl, eng, sched, bw, tally)}
}

// FixedBW is shorthand for the constant-bandwidth model.
func FixedBW(mbps float64) workload.BandwidthModel {
	return workload.Fixed{MBps: mbps}
}

// Name implements Engine.
func (f *FARM) Name() string { return "farm" }

// HandleDetection schedules one parallel rebuild per lost block.
func (f *FARM) HandleDetection(now sim.Time, diskID int, failedAt sim.Time, lost []cluster.BlockRef) {
	for _, ref := range lost {
		f.startRebuild(failedAt, int(ref.Group), int(ref.Rep))
	}
}

// startRebuild selects target and source for one block and submits the
// transfer. Returns silently if the group is already beyond repair.
func (f *FARM) startRebuild(failedAt sim.Time, group, rep int) {
	if f.cl.GroupLost(group) {
		f.tally.DroppedRebuilds++
		return
	}
	src := f.cl.SourceFor(group, -1)
	if src < 0 && f.net != nil {
		// Every intact buddy is behind a dark switch; the rebuild will
		// park against one (submitTracked's guard) instead of dropping.
		src = f.cl.AnySourceFor(group, -1)
	}
	if src < 0 {
		f.tally.DroppedRebuilds++
		return
	}
	r := &rebuild{failedAt: failedAt, baseDur: f.blockDuration()}
	r.span = f.spanOpen(group, rep, failedAt)
	target, trial, ok := f.pickTarget(group, rep, 0)
	if !ok {
		// Nowhere to put the block (cluster effectively full/dead);
		// leave the group degraded.
		f.tally.DroppedRebuilds++
		f.spanDropped(r, f.eng.Now())
		return
	}
	r.trial = trial
	r.task = &Task{
		Group:    group,
		Rep:      rep,
		Source:   src,
		Target:   target,
		Duration: f.effDuration(r.baseDur, src, target),
	}
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
	f.sched.Cancel(r.task)
	f.untrack(r)
	// No ReleaseTarget: the dead disk's byte accounting is already gone.
	if f.cl.GroupLost(r.task.Group) {
		f.tally.DroppedRebuilds++
		f.spanDropped(r, now)
		return
	}
	target, trial, ok := f.pickTarget(r.task.Group, r.task.Rep, r.trial+1)
	if !ok {
		f.tally.DroppedRebuilds++
		f.spanDropped(r, now)
		return
	}
	src := r.task.Source
	if f.cl.Disks[src].State != disk.Alive || src == target {
		src = f.cl.SourceFor(r.task.Group, target)
		if src < 0 && f.net != nil {
			src = f.cl.AnySourceFor(r.task.Group, target)
		}
		if src < 0 {
			f.cl.ReleaseTarget(target)
			f.tally.DroppedRebuilds++
			f.spanDropped(r, now)
			return
		}
	}
	nt := &Task{
		Group:    r.task.Group,
		Rep:      r.task.Rep,
		Source:   src,
		Target:   target,
		Duration: f.effDuration(r.baseDur, src, target),
	}
	r.task = nt
	r.trial = trial
	f.track(r)
	f.tally.Redirections++
	if r.span != nil {
		r.span.Redirections++
	}
	f.submitTracked(r)
}
