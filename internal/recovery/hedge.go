package recovery

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the active half of the straggler-mitigation layer: the
// per-rebuild hedge/timeout timers, the duplicate-transfer lifecycle,
// and the detector feeding. Everything here is dormant (det == nil, no
// timers armed, no allocations) until SetStraggler enables the policy,
// so a disabled layer leaves the engines byte-identical to a tree
// without it.

// submitTracked submits the rebuild's current primary task and arms the
// straggler timers against its healthy-model deadline. Deadlines measure
// total outstanding time from submission (queue wait included), the
// "tail at scale" hedging signal: a rebuild stuck in queue behind a
// crawling transfer is exactly as vulnerable as one crawling itself, and
// the hedge's fresh source/target pair escapes both. The detector, by
// contrast, scores only transfer durations — a busy healthy disk is
// never *flagged* slow, it just gets hedged around.
func (b *base) submitTracked(r *rebuild) {
	// Unified dark-rack catch-all: an attempt headed at or out of an
	// unreachable rack parks here whatever path produced it (initial
	// submission, retry, re-source, redirection, heal resume).
	if b.net != nil && (b.net.DiskUnreachable(r.task.Source) || b.net.DiskUnreachable(r.task.Target)) {
		b.parkTracked(r)
		return
	}
	// Write-fence catch-all: an attempt writing to a read-only target (a
	// rolling-upgrade window) parks until the fence lifts. Sources are
	// exempt — a fenced disk still serves reads.
	if b.cl.ReadOnly(r.task.Target) {
		b.tally.FencedParks++
		b.parkTracked(r)
		return
	}
	r.parked = false
	// A new attempt begins: re-arm the span latch so its end is
	// accounted exactly once, and hand the span to the scheduler so the
	// OnStart hook can mark the first transfer start.
	r.spanDone = false
	r.task.span = r.span
	if r.span != nil {
		r.span.Attempts++
	}
	b.sched.Submit(r.task, func(now sim.Time, _ *Task) { b.complete(now, r) })
	b.armStragglerTimers(r)
}

// armStragglerTimers arms the hedge and timeout deadlines for the
// rebuild's current attempt. Already-armed timers are left running (a
// transient retry keeps its original deadlines: the rebuild has been
// outstanding the whole time); terminal paths cancel both via untrack.
func (b *base) armStragglerTimers(r *rebuild) {
	if b.det == nil {
		return
	}
	if b.policy.timeouts() && !r.timeoutEv.Valid() {
		d := sim.Time(float64(r.baseDur) * b.policy.TimeoutMultiple)
		r.timeoutEv = b.eng.After(d, "rebuild-timeout", func(now sim.Time) {
			r.timeoutEv = sim.Handle{}
			b.timeoutFired(now, r)
		})
	}
	if b.policy.hedging() && !r.hedgeEv.Valid() && r.hedgeTask == nil &&
		r.hedges < b.policy.MaxHedgesPerRebuild {
		d := sim.Time(float64(r.baseDur) * b.policy.HedgeAfterMultiple)
		r.hedgeEv = b.eng.After(d, "rebuild-hedge", func(now sim.Time) {
			r.hedgeEv = sim.Handle{}
			b.maybeHedge(now, r)
		})
	}
}

// timeoutFired hard-aborts a rebuild that overstayed its timeout
// multiple: the current attempt is cancelled and the rebuild escalates
// through the retry/re-source ladder with a fresh source. Two guards
// keep the abort from degenerating into churn:
//
//   - While a hedge is racing the primary, the duplicate transfer (on a
//     fresh source AND target) is already the escape hatch; aborting the
//     primary too would throw away the more-advanced of the two racers
//     and requeue the work behind everything else. The timer re-arms so
//     a rebuild whose hedge *also* stalls still escalates eventually.
//   - Once the re-sourcing cap is reached the timer stops firing and the
//     attempt is left to run: if the slowness lives on the *target*
//     (which re-sourcing cannot fix), a slow rebuild still beats an
//     abandoned one, so the timeout path never converts stuck work into
//     data loss.
func (b *base) timeoutFired(now sim.Time, r *rebuild) {
	if r.hedgeTask != nil {
		d := sim.Time(float64(r.baseDur) * b.policy.TimeoutMultiple)
		r.timeoutEv = b.eng.After(d, "rebuild-timeout", func(at sim.Time) {
			r.timeoutEv = sim.Handle{}
			b.timeoutFired(at, r)
		})
		return
	}
	if r.resourcings >= b.maxResourcings() {
		return // mitigation exhausted; let the attempt finish at its pace
	}
	b.tally.RebuildTimeouts++
	if r.span != nil {
		r.span.TimedOut = true
	}
	b.observe(now, trace.KindRebuildTimeout, r.task.Group, r.task.Rep, r.task.Target)
	r.retries = 0
	b.resourceChecked(now, r)
}

// maybeHedge launches the duplicate transfer for a rebuild stuck past
// its hedge deadline: another buddy read onto a fresh declustered
// target, first finisher wins. The hedge claims its own reservation and
// a perGroupTargets slot so concurrent rebuilds of the group cannot
// collide with it.
func (b *base) maybeHedge(now sim.Time, r *rebuild) {
	if r.hedgeTask != nil || r.hedges >= b.policy.MaxHedgesPerRebuild {
		return
	}
	if b.cl.GroupLost(r.task.Group) {
		return
	}
	target, _, ok := b.pickTarget(r.task.Group, r.task.Rep, 0)
	if !ok {
		return // nowhere to duplicate to; the primary stands alone
	}
	// Prefer a source different from the (possibly slow) primary source;
	// with only one intact buddy left, share it — the hedge then only
	// covers a slow target, not a slow source.
	src := b.cl.SourceForExcluding(r.task.Group, r.task.Source, target)
	if src < 0 {
		src = b.cl.SourceFor(r.task.Group, target)
	}
	if src < 0 {
		b.cl.ReleaseTarget(target)
		return
	}
	ht := &Task{
		Group:    r.task.Group,
		Rep:      r.task.Rep,
		Source:   src,
		Target:   target,
		Duration: b.effDuration(r.baseDur, src, target),
	}
	r.hedgeTask = ht
	r.hedges++
	r.hedgeAt = now
	b.tally.Hedges++
	if r.span != nil {
		r.span.Hedges++
		ht.span = r.span
	}
	b.trackHedge(r)
	b.observe(now, trace.KindHedge, ht.Group, ht.Rep, ht.Target)
	b.sched.Submit(ht, func(done sim.Time, _ *Task) { b.hedgeComplete(done, r) })
}

// trackHedge registers the rebuild's hedge task in the hedge indexes and
// the per-group target set.
func (b *base) trackHedge(r *rebuild) {
	ht := r.hedgeTask
	b.hedgeByDisk[ht.Source] = append(b.hedgeByDisk[ht.Source], r)
	b.hedgeByDisk[ht.Target] = append(b.hedgeByDisk[ht.Target], r)
	b.perGroupTargets[ht.Group] = append(b.perGroupTargets[ht.Group], ht.Target)
}

// untrackHedge removes the hedge from the indexes and clears the task
// pointer. It does not touch the scheduler or the target reservation.
// Whatever resolved the hedge (win, loss, cancellation), the duplicate
// raced the primary from launch until this instant — that interval is
// the span's hedge-overlap phase.
func (b *base) untrackHedge(r *rebuild) {
	if r.span != nil {
		r.span.HedgeOverlap += float64(b.eng.Now() - r.hedgeAt)
	}
	ht := r.hedgeTask
	b.hedgeByDisk[ht.Source] = removeRebuild(b.hedgeByDisk[ht.Source], r)
	b.hedgeByDisk[ht.Target] = removeRebuild(b.hedgeByDisk[ht.Target], r)
	tg := b.perGroupTargets[ht.Group]
	for i, t := range tg {
		if t == ht.Target {
			tg[i] = tg[len(tg)-1]
			b.perGroupTargets[ht.Group] = tg[:len(tg)-1]
			break
		}
	}
	r.hedgeTask = nil
}

// cancelHedge aborts an in-flight hedge (the primary won, was replaced,
// or lost an endpoint) and returns its target reservation.
func (b *base) cancelHedge(r *rebuild) {
	ht := r.hedgeTask
	if ht == nil {
		return
	}
	b.sched.Cancel(ht)
	b.cl.ReleaseTarget(ht.Target)
	b.untrackHedge(r)
}

// dropHedgesOn cancels every hedge touching a dead disk. Hedges are
// best-effort duplicates: losing one never re-drives work, the primary
// rebuild still stands (and is fixed up by the regular failure paths).
func (b *base) dropHedgesOn(diskID int) {
	for len(b.hedgeByDisk[diskID]) > 0 {
		b.cancelHedge(b.hedgeByDisk[diskID][0])
	}
}

// hedgeComplete finishes a duplicate transfer. A faulting hedge read
// simply loses the race (the primary is untouched); a clean hedge
// supersedes the primary: the block lands on the hedge target and the
// primary attempt is cancelled.
func (b *base) hedgeComplete(now sim.Time, r *rebuild) {
	ht := r.hedgeTask
	if b.fm != nil {
		switch b.fm.ProbeRead(now, ht.Source, ht.Group) {
		case faults.ReadTransient:
			b.tally.TransientFaults++
			b.cl.ReleaseTarget(ht.Target)
			b.untrackHedge(r)
			return
		case faults.ReadLatent:
			// The damaged replica was unlinked (and queued for repair) by
			// the injector's discovery handler; this hedge just loses.
			b.cl.ReleaseTarget(ht.Target)
			b.untrackHedge(r)
			return
		}
	}
	b.untrackHedge(r)
	// First finisher wins: cancel the primary attempt and release its
	// reservation (dead targets already dropped their byte accounting).
	b.spanEndAttempt(r, now)
	b.sched.Cancel(r.task)
	b.untrack(r)
	b.cl.ReleaseTarget(r.task.Target)
	if b.cl.GroupLost(ht.Group) {
		b.cl.ReleaseTarget(ht.Target)
		b.tally.DroppedRebuilds++
		b.spanDropped(r, now)
		b.observe(now, trace.KindDropped, ht.Group, ht.Rep, ht.Target)
		return
	}
	b.cl.PlaceRecovered(ht.Group, ht.Rep, ht.Target)
	b.noteCrossRack(ht.Source, ht.Target)
	b.tally.BlocksRebuilt++
	b.tally.HedgeWins++
	if r.span != nil {
		r.span.HedgeWon = true
	}
	w := float64(now - r.failedAt)
	b.stats.Window.Add(w)
	b.recordWindow(w)
	b.sampleDegradedReads(now, r, ht, w)
	b.spanFinish(r, now, obs.OutcomeDone)
	b.noteTransfer(now, ht)
	b.observe(now, trace.KindHedgeWin, ht.Group, ht.Rep, ht.Target)
}

// recordWindow feeds one vulnerability window into the streaming tail
// quantiles and, when a registry is attached, the window histogram.
func (b *base) recordWindow(w float64) {
	b.stats.WindowP50.Add(w)
	b.stats.WindowP99.Add(w)
	if b.hists.window != nil {
		b.hists.window.Observe(w)
	}
}

// noteTransfer feeds one successful transfer into the peer-comparison
// detector: one cluster-median sample, one EWMA score per endpoint. The
// signal is the transfer's *duration* (not its queue wait), so a busy
// healthy disk is not mistaken for a slow one.
func (b *base) noteTransfer(now sim.Time, t *Task) {
	if b.det == nil || t.Duration <= 0 {
		return
	}
	mbps := float64(b.cl.BlockBytes) / (float64(t.Duration) * 1e6 * 3600)
	b.det.addSample(mbps)
	b.scoreDisk(now, t.Source, mbps)
	b.scoreDisk(now, t.Target, mbps)
}

// scoreDisk folds one endpoint sample and reacts to detector verdicts:
// flags are traced, evictions additionally fire the engine's eviction
// callback (bound to the S.M.A.R.T. suspect/drain path by the core).
func (b *base) scoreDisk(now sim.Time, id int, mbps float64) {
	flagged, evicted := b.det.score(id, mbps)
	if flagged {
		b.tally.SlowFlagged++
		b.observe(now, trace.KindFailSlowDetect, -1, -1, id)
	}
	if evicted {
		b.tally.SlowEvicted++
		b.observe(now, trace.KindEvictSlow, -1, -1, id)
		if b.evict != nil {
			b.evict(now, id)
		}
	}
}

// maxResourcings is the re-sourcing cap: the fault model's when one is
// installed, a conservative default otherwise (the timeout path can
// escalate rebuilds with no fault model configured).
func (b *base) maxResourcings() int {
	if b.fm != nil {
		return b.fm.MaxResourcings()
	}
	return 8
}
