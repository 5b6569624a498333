package recovery

import (
	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Stats holds the engine's distribution accumulators over one run. The
// engine's event counters live in the obs.Tally passed to its
// constructor.
type Stats struct {
	// Window accumulates per-block windows of vulnerability: failure
	// (not detection) to rebuild completion, in hours. WindowP50 and
	// WindowP99 are streaming quantiles of the same windows — the
	// rebuild-time tail the fail-slow experiment reports. P² estimators:
	// O(1) memory, no allocation after newBase.
	Window    metrics.Welford
	WindowP50 metrics.P2Quantile
	WindowP99 metrics.P2Quantile
	// DegradedMs accumulates the latencies (milliseconds) of user reads
	// served by k-way reconstruction during a block's window of
	// vulnerability; DegradedP50/DegradedP99 are the streaming quantiles
	// of the same samples. HealthyP99 is the tail of the counterfactual
	// healthy-read latencies sampled at the same instants — the
	// user-visible cost of the window is the gap.
	DegradedMs  metrics.Welford
	DegradedP50 metrics.P2Quantile
	DegradedP99 metrics.P2Quantile
	HealthyP99  metrics.P2Quantile
	// ThrottleMBps accumulates the recovery rate the QoS policy granted
	// at each decision point.
	ThrottleMBps metrics.Welford
}

// FaultModel is the injection surface the engines consult when a rebuild
// transfer completes; implemented by *faults.Injector. A nil model (the
// default) means no injected faults and no extra work on the hot path.
type FaultModel interface {
	// ProbeRead classifies the source read of a just-finished transfer.
	ProbeRead(now sim.Time, src, group int) faults.Outcome
	// RetryBackoff returns the delay before retry attempt n (1-based).
	RetryBackoff(attempt int) sim.Time
	// MaxRetries caps transient retries per source.
	MaxRetries() int
	// MaxResourcings caps source switches per rebuild.
	MaxResourcings() int
}

// Engine is a recovery strategy. The core simulator calls HandleFailure at
// the instant a disk dies (to fix up in-flight work) and HandleDetection
// once the failure is noticed (to start rebuilding the lost blocks).
type Engine interface {
	// HandleFailure reacts to disk diskID dying at now: rebuilds in
	// flight that read from or write to it must be redirected or
	// re-sourced.
	HandleFailure(now sim.Time, diskID int)
	// HandleDetection starts recovery for the blocks lost with diskID.
	// failedAt is the underlying failure time (now - failedAt is the
	// detection latency contribution to the vulnerability window).
	HandleDetection(now sim.Time, diskID int, failedAt sim.Time, lost []cluster.BlockRef)
	// HandleBlockLoss starts recovery for a single damaged replica —
	// a latent sector error discovered by a scrub or a rebuild read on
	// disk diskID. The block has already been unlinked from the cluster.
	HandleBlockLoss(now sim.Time, failedAt sim.Time, diskID, group, rep int)
	// SetFaultModel installs the fault-injection surface consulted when
	// transfers complete; nil (the default) disables probing.
	SetFaultModel(fm FaultModel)
	// SetStraggler installs the straggler-mitigation policy (defaults
	// filled) and the eviction callback fired when the peer-comparison
	// detector condemns a persistently slow disk. A disabled policy (the
	// zero value) leaves every code path untouched.
	SetStraggler(p StragglerPolicy, evict func(now sim.Time, diskID int))
	// Stats returns the engine's distribution accumulators.
	Stats() *Stats
	// Name identifies the engine ("farm" or "spare").
	Name() string
	// SetObserver installs an optional callback fired when a block
	// rebuild completes ("rebuilt"), is abandoned ("dropped"), or is
	// retried after a transient fault ("retry"), for tracing.
	SetObserver(fn func(now sim.Time, kind trace.Kind, group, rep, diskID int))
	// SetObservability installs the flight-recorder surfaces of o: the
	// per-rebuild histograms when o.Registry is set, the rebuild-lifecycle
	// span log when o.Spans is set. Nil disables both.
	SetObservability(o *obs.RunObserver)
	// InFlight returns the number of tracked block rebuilds (read-only;
	// feeds the state sampler).
	InFlight() int
	// SetTopology installs the run's network fabric: transfer durations
	// become contention-shaped, unreachable endpoints park rebuilds, and
	// re-sourcing prefers reachable racks. Nil (the default) keeps the
	// flat model bit-for-bit.
	SetTopology(net *topology.Network)
	// HandleUnreachable reacts to diskID's rack going dark at now:
	// rebuilds writing to it park, rebuilds reading from it re-source
	// (or park when no reachable buddy exists).
	HandleUnreachable(now sim.Time, diskID int)
	// HandleReachable reacts to diskID's rack healing: rebuilds parked
	// against the disk resubmit.
	HandleReachable(now sim.Time, diskID int)
	// SetForeground installs the run's foreground-traffic bundle: rebuild
	// transfers contend with user load, the throttle policy governs the
	// recovery rate, and completed windows sample degraded-read latency.
	// Nil (the default) keeps every fast path bit-for-bit.
	SetForeground(fg *workload.Foreground)
	// SetDetailObserver installs the detail-bearing observer for
	// foreground events (degraded-read samples, throttle steps), which
	// carry a payload the positional observer cannot express.
	SetDetailObserver(fn func(now sim.Time, kind trace.Kind, group, rep, diskID int, detail string))
	// HandleWriteFence reacts to diskID turning read-only at now (a
	// rolling-upgrade window): rebuilds writing to it park. Reads are
	// unaffected — a fenced disk still serves as a rebuild source.
	HandleWriteFence(now sim.Time, diskID int)
	// HandleWriteUnfence reacts to diskID's write fence lifting: rebuilds
	// parked against it resubmit.
	HandleWriteUnfence(now sim.Time, diskID int)
}

// DiskSpawner lets an engine add drives to the system; the simulator hooks
// it to schedule failure events for the new drives. Returns the disk ID.
type DiskSpawner func(now sim.Time) int

// rebuild carries the engine-level state of one block reconstruction.
type rebuild struct {
	task     *Task
	failedAt sim.Time // when the block was lost
	// trial is the candidate-stream position of the current target, so
	// redirection resumes the stream past it (FARM only).
	trial int
	// retries counts transient-fault retries against the current source;
	// resourcings counts source switches over the rebuild's lifetime.
	retries     int
	resourcings int
	// retryEv is the pending backed-off resubmission, if any; untrack
	// cancels it so redirection/re-sourcing/abandonment during a backoff
	// cannot leave a stale resubmission behind.
	retryEv sim.Handle
	// baseDur is the healthy-model transfer duration fixed when the
	// rebuild was first created. It is the deadline reference for hedging
	// and timeouts and the base every (re)submission scales by the
	// endpoints' fail-slow factors; with no per-disk degradation every
	// submission uses it bit-for-bit unchanged.
	baseDur sim.Time
	// hedgeEv/timeoutEv are the pending straggler timers; hedgeTask is
	// the in-flight duplicate transfer (nil when none); hedges counts
	// duplicates launched over the rebuild's lifetime (capped).
	hedgeEv   sim.Handle
	timeoutEv sim.Handle
	hedgeTask *Task
	hedges    int
	// span is the rebuild's lifecycle span (nil when spans are
	// disabled); spanDone latches the current attempt's phase accounting
	// (see spanEndAttempt). retryArmedAt is when the pending backed-off
	// resubmission was armed; hedgeAt is when the in-flight hedge
	// launched — both feed the span's retry-wait/hedge-overlap phases.
	span         *obs.Span
	spanDone     bool
	retryArmedAt sim.Time
	hedgeAt      sim.Time
	// parked marks a rebuild suspended against an unreachable endpoint:
	// its task is cancelled and its timers disarmed, but it stays in the
	// disk indexes so heals (and endpoint deaths) find it.
	parked bool
}

// base holds the machinery common to both engines.
type base struct {
	cl    *cluster.Cluster
	eng   *sim.Engine
	sched *Scheduler
	// bw yields the per-disk bandwidth available to a rebuild starting
	// at a given time (fixed in the paper's base experiments; diurnal
	// under adaptive recovery, §2.4).
	bw    workload.BandwidthModel
	stats Stats
	// tally is the run's outcome record; every engine event counter is
	// written there, once per event.
	tally *obs.Tally
	// active indexes live rebuilds by the disks they touch.
	bySource map[int][]*rebuild
	byTarget map[int][]*rebuild
	// perGroupTargets tracks in-flight rebuild targets per group so two
	// rebuilds of one group never pick the same disk. Values are tiny
	// (at most the group's missing-block count), so a slice with
	// swap-remove beats a nested map; emptied slices keep their backing
	// array for reuse, so steady-state tracking allocates nothing.
	perGroupTargets map[int][]int
	// observer, when set, sees rebuilt/dropped/retry block events.
	observer func(now sim.Time, kind trace.Kind, group, rep, diskID int)
	// fm, when set, injects read faults into completing transfers.
	fm FaultModel
	// scratchSrc/scratchTgt are reusable buffers for rebuildsTouching:
	// handlers mutate the underlying indexes while iterating, so the
	// lists are copied — into these, not fresh slices.
	scratchSrc []*rebuild
	scratchTgt []*rebuild
	// pd is bw's per-disk view when the bandwidth model carries fail-slow
	// state (nil otherwise); cached so the hot path does not repeat the
	// interface assertion.
	pd workload.PerDiskModel
	// policy/det/evict are the straggler-mitigation layer; det is nil
	// (and every related code path dormant) until SetStraggler enables
	// the policy.
	policy StragglerPolicy
	det    *stragglerDetector
	evict  func(now sim.Time, diskID int)
	// hedgeByDisk indexes in-flight hedge transfers by both endpoints so
	// disk deaths can drop them.
	hedgeByDisk map[int][]*rebuild
	// hists are the per-rebuild registry histograms (all nil when no
	// registry is attached).
	hists histograms
	// spans, when non-nil, receives one lifecycle span per block rebuild.
	spans *obs.SpanLog
	// inFlight counts tracked rebuilds (read-only sampler feed).
	inFlight int
	// net, when non-nil, is the run's network fabric (SetTopology).
	net *topology.Network
	// fg, when non-nil, is the run's foreground-traffic bundle
	// (SetForeground): demand contention, throttle policy, degraded-read
	// sampling. activeTargets counts distinct disks with in-flight
	// rebuild writes — the parallel-stream estimate the deadline policy's
	// repair bound divides the backlog by. lastThrottle is the previous
	// policy grant, for throttle-step detection.
	fg            *workload.Foreground
	activeTargets int
	lastThrottle  float64
	// detailObserver, when set, sees foreground events with a payload.
	detailObserver func(now sim.Time, kind trace.Kind, group, rep, diskID int, detail string)
}

func newBase(cl *cluster.Cluster, eng *sim.Engine, sched *Scheduler, bw workload.BandwidthModel, tally *obs.Tally) base {
	pd, _ := bw.(workload.PerDiskModel)
	b := base{
		cl:              cl,
		eng:             eng,
		sched:           sched,
		bw:              bw,
		tally:           tally,
		pd:              pd,
		bySource:        make(map[int][]*rebuild),
		byTarget:        make(map[int][]*rebuild),
		perGroupTargets: make(map[int][]int),
		hedgeByDisk:     make(map[int][]*rebuild),
	}
	b.stats.WindowP50 = metrics.NewP2(0.5)
	b.stats.WindowP99 = metrics.NewP2(0.99)
	b.stats.DegradedP50 = metrics.NewP2(0.5)
	b.stats.DegradedP99 = metrics.NewP2(0.99)
	b.stats.HealthyP99 = metrics.NewP2(0.99)
	return b
}

func (b *base) Stats() *Stats { return &b.stats }

// SetObserver implements Engine.
func (b *base) SetObserver(fn func(now sim.Time, kind trace.Kind, group, rep, diskID int)) {
	b.observer = fn
}

// SetFaultModel implements Engine.
func (b *base) SetFaultModel(fm FaultModel) { b.fm = fm }

// SetStraggler implements Engine: it fills the policy defaults and, when
// enabled, builds the peer-comparison detector. evict (optional) is
// fired at most once per condemned disk; the core simulator binds it to
// the S.M.A.R.T. suspect/drain path.
func (b *base) SetStraggler(p StragglerPolicy, evict func(now sim.Time, diskID int)) {
	p = p.withDefaults()
	b.policy = p
	b.evict = evict
	if p.Enabled {
		b.det = newStragglerDetector(p, b.cl.NumDisks())
	} else {
		b.det = nil
	}
}

// observe fires the observer if installed.
func (b *base) observe(now sim.Time, kind trace.Kind, group, rep, diskID int) {
	if b.observer != nil {
		b.observer(now, kind, group, rep, diskID)
	}
}

// blockDuration is the healthy-model transfer time of one block rebuild
// requested now — the expectation deadlines are measured against. Under
// a throttle policy the policy's grant replaces the bandwidth model's
// curve (the policy *is* the recovery-rate decision).
func (b *base) blockDuration() sim.Time {
	var mbps float64
	if b.fg != nil && b.fg.Policy != nil {
		mbps = b.throttleMBps(float64(b.eng.Now()))
	} else {
		mbps = b.bw.RecoveryMBps(float64(b.eng.Now()))
	}
	return sim.Time(disk.RebuildHours(b.cl.BlockBytes, mbps))
}

// effDuration scales a healthy-model duration by the worse of the two
// endpoints' fail-slow factors and, when a demand model is installed, by
// the contention stretch of the busier endpoint's user share. With
// neither layer installed it returns baseDur bit-for-bit unchanged (no
// float operation), so the disabled layers cannot perturb schedules.
func (b *base) effDuration(baseDur sim.Time, src, tgt int) sim.Time {
	if b.pd == nil && b.fg == nil {
		return baseDur
	}
	f := 1.0
	if b.pd != nil {
		f = b.pd.SlowdownFactor(src)
		if g := b.pd.SlowdownFactor(tgt); g > f {
			f = g
		}
	}
	if b.fg != nil {
		now := float64(b.eng.Now())
		s := b.fg.Demand.Share(now, src)
		if t := b.fg.Demand.Share(now, tgt); t > s {
			s = t
		}
		f *= workload.ContentionFactor(s)
	}
	if f <= 1 {
		return baseDur
	}
	return sim.Time(float64(baseDur) * f)
}

// track registers a rebuild in the disk indexes.
//
//farm:hotpath in-flight index insert, gated by TestTrackUntrackSteadyStateZeroAlloc
func (b *base) track(r *rebuild) {
	b.bySource[r.task.Source] = append(b.bySource[r.task.Source], r)
	if len(b.byTarget[r.task.Target]) == 0 {
		b.activeTargets++
	}
	b.byTarget[r.task.Target] = append(b.byTarget[r.task.Target], r)
	b.perGroupTargets[r.task.Group] = append(b.perGroupTargets[r.task.Group], r.task.Target)
	b.inFlight++
}

// untrack removes a rebuild from the disk indexes. It also cancels any
// pending backed-off resubmission and any straggler timer or in-flight
// hedge: every path that untracks (success, abandonment, redirection,
// re-sourcing, hedge win) supersedes them.
//
//farm:hotpath in-flight index removal, gated by TestTrackUntrackSteadyStateZeroAlloc
func (b *base) untrack(r *rebuild) {
	b.cancelTimers(r)
	b.bySource[r.task.Source] = removeRebuild(b.bySource[r.task.Source], r)
	tl := removeRebuild(b.byTarget[r.task.Target], r)
	if len(tl) == 0 && len(b.byTarget[r.task.Target]) > 0 {
		b.activeTargets--
	}
	b.byTarget[r.task.Target] = tl
	tg := b.perGroupTargets[r.task.Group]
	for i, t := range tg {
		if t == r.task.Target {
			tg[i] = tg[len(tg)-1]
			// Keep the emptied slice in the map: its backing array is
			// reused by the next rebuild of this group.
			b.perGroupTargets[r.task.Group] = tg[:len(tg)-1]
			break
		}
	}
	b.inFlight--
}

// cancelTimers disarms a rebuild's pending backed-off resubmission,
// straggler timers, and in-flight hedge — shared by untrack and park
// (which keeps the rebuild in the indexes but must quiesce it).
//
//farm:hotpath timer teardown on every untrack
func (b *base) cancelTimers(r *rebuild) {
	if r.retryEv.Valid() {
		b.eng.Cancel(r.retryEv)
		r.retryEv = sim.Handle{}
		if r.span != nil {
			// The backoff was cut short; the hours actually waited are
			// still retry wait.
			r.span.RetryWait += float64(b.eng.Now() - r.retryArmedAt)
		}
	}
	if r.hedgeEv.Valid() {
		b.eng.Cancel(r.hedgeEv)
		r.hedgeEv = sim.Handle{}
	}
	if r.timeoutEv.Valid() {
		b.eng.Cancel(r.timeoutEv)
		r.timeoutEv = sim.Handle{}
	}
	if r.hedgeTask != nil {
		b.cancelHedge(r)
	}
}

func removeRebuild(list []*rebuild, r *rebuild) []*rebuild {
	for i, x := range list {
		if x == r {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// complete finishes a rebuild: probe the source read for injected
// faults, then install the block and record the window.
func (b *base) complete(now sim.Time, r *rebuild) {
	// The attempt ran to completion whatever the probe below says; fold
	// its queue wait and transfer time into the span now.
	b.spanEndAttempt(r, now)
	if b.fm != nil {
		switch b.fm.ProbeRead(now, r.task.Source, r.task.Group) {
		case faults.ReadTransient:
			b.tally.TransientFaults++
			b.retryOrResource(now, r)
			return
		case faults.ReadLatent:
			// The damaged source replica has already been unlinked and
			// queued for repair by the injector's discovery handler
			// (which may have latched the group lost); this rebuild
			// switches to another buddy or drains through DroppedRebuilds.
			r.retries = 0
			b.resourceChecked(now, r)
			return
		}
	}
	b.untrack(r)
	if b.cl.GroupLost(r.task.Group) {
		// The group lost data while this block was in flight; the
		// reservation stands as wasted space dropped with the group.
		b.cl.ReleaseTarget(r.task.Target)
		b.tally.DroppedRebuilds++
		b.spanDropped(r, now)
		b.observe(now, trace.KindDropped, r.task.Group, r.task.Rep, r.task.Target)
		return
	}
	b.cl.PlaceRecovered(r.task.Group, r.task.Rep, r.task.Target)
	b.tally.BlocksRebuilt++
	b.noteCrossRack(r.task.Source, r.task.Target)
	w := float64(now - r.failedAt)
	b.stats.Window.Add(w)
	b.recordWindow(w)
	b.sampleDegradedReads(now, r, r.task, w)
	b.spanFinish(r, now, obs.OutcomeDone)
	b.noteTransfer(now, r.task)
	b.observe(now, trace.KindRebuilt, r.task.Group, r.task.Rep, r.task.Target)
}

// abandon drops a rebuild whose group is beyond repair.
func (b *base) abandon(r *rebuild) {
	now := b.eng.Now()
	b.spanEndAttempt(r, now)
	b.sched.Cancel(r.task)
	b.untrack(r)
	b.cl.ReleaseTarget(r.task.Target)
	b.tally.DroppedRebuilds++
	b.spanDropped(r, now)
}

// resource replaces the failed read source of a rebuild, or abandons it if
// the group is lost.
func (b *base) resource(r *rebuild) {
	// The current attempt ends here whichever branch wins (abandon
	// re-checks via the latch).
	b.spanEndAttempt(r, b.eng.Now())
	if b.cl.GroupLost(r.task.Group) {
		b.abandon(r)
		return
	}
	// Prefer a buddy different from the source that just proved dead,
	// damaged, faulty, or slow; when it was the *only* intact buddy left
	// (alive after exhausted transient retries, say), fall back to it
	// rather than abandoning. Dead/unlinked sources are never candidates,
	// so the fallback changes nothing on those paths.
	src := b.cl.SourceForExcluding(r.task.Group, r.task.Source, r.task.Target)
	if src < 0 {
		src = b.cl.SourceFor(r.task.Group, r.task.Target)
	}
	if src < 0 {
		// No *reachable* intact block remains. Without topology that
		// means no intact block at all (with Available < m the group is
		// already latched lost, so this is unreachable unless m == 0).
		// With topology, an intact buddy may merely sit behind a dark
		// switch — park the rebuild until the rack heals instead of
		// converting a partition into data abandonment.
		if b.net != nil {
			if alt := b.cl.AnySourceFor(r.task.Group, r.task.Target); alt >= 0 {
				b.parkOnSource(r, alt)
				return
			}
		}
		b.abandon(r)
		return
	}
	if b.net != nil && !b.net.SameRack(src, r.task.Source) {
		// Topology-aware re-sourcing crossed the fabric to another rack
		// (typically fleeing a dark or dead one).
		b.observe(b.eng.Now(), trace.KindResourceCrossRack, r.task.Group, r.task.Rep, src)
	}
	b.sched.Cancel(r.task)
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
	b.tally.Resourcings++
	if r.span != nil {
		r.span.Resourcings++
	}
	b.submitTracked(r)
}

// resourceChecked re-sources a rebuild whose current source is unusable
// (latent error or exhausted retries), abandoning it through the
// DroppedRebuilds path once the fault model's re-sourcing cap is exceeded —
// graceful degradation instead of an unbounded source-hopping loop.
func (b *base) resourceChecked(now sim.Time, r *rebuild) {
	r.resourcings++
	if r.resourcings > b.maxResourcings() {
		b.observe(now, trace.KindDropped, r.task.Group, r.task.Rep, r.task.Target)
		b.abandon(r)
		return
	}
	b.resource(r)
}

// retryOrResource reacts to a transient source-read fault: re-attempt
// the same transfer after capped exponential backoff, up to the fault
// model's retry cap, then escalate to re-sourcing. The rebuild stays
// tracked (its target reservation stands) during the backoff, so disk
// deaths in the window still find and fix it up.
func (b *base) retryOrResource(now sim.Time, r *rebuild) {
	if r.retries >= b.fm.MaxRetries() {
		r.retries = 0
		b.resourceChecked(now, r)
		return
	}
	r.retries++
	b.tally.RebuildRetries++
	if r.span != nil {
		r.span.Retries++
	}
	// A fresh Task with identical endpoints: the finished task is spent
	// (scheduler state done), but the disk indexes key by endpoint, so
	// swapping the task pointer keeps tracking consistent.
	nt := &Task{
		Group:    r.task.Group,
		Rep:      r.task.Rep,
		Source:   r.task.Source,
		Target:   r.task.Target,
		Duration: b.effDuration(r.baseDur, r.task.Source, r.task.Target),
	}
	r.task = nt
	r.retryArmedAt = now
	b.observe(now, trace.KindRetry, nt.Group, nt.Rep, nt.Source)
	r.retryEv = b.eng.After(b.fm.RetryBackoff(r.retries), "rebuild-retry", func(at sim.Time) {
		r.retryEv = sim.Handle{}
		if r.span != nil {
			r.span.RetryWait += float64(at - r.retryArmedAt)
		}
		if b.cl.GroupLost(nt.Group) {
			b.observe(at, trace.KindDropped, nt.Group, nt.Rep, nt.Target)
			b.abandon(r)
			return
		}
		b.submitTracked(r)
	})
}

// pickTarget applies the paper's target rules via the placement candidate
// stream, additionally excluding targets already claimed by in-flight
// rebuilds of the same group. It reserves space on the chosen disk. The
// exclusion set is the cluster's reusable epoch-stamped scratch, so the
// steady-state path performs no allocation.
//
//farm:hotpath FARM redirection/targeting, gated by TestFARMPickTargetZeroAlloc
func (b *base) pickTarget(group, rep, startTrial int) (target, trial int, ok bool) {
	if b.net != nil && b.net.RackAware() {
		return b.pickTargetSpread(group, rep, startTrial)
	}
	exclude := b.cl.BuddyExcludes(group)
	for _, t := range b.perGroupTargets[group] {
		exclude.Add(t)
	}
	target, trial, err := b.cl.Hasher().RecoveryTarget(
		b.cl, uint64(group), rep, b.cl.BlockBytes, exclude, startTrial)
	if err != nil {
		return -1, 0, false
	}
	if !b.cl.ReserveTarget(target) {
		// Raced with another reservation landing between Eligible and
		// Reserve; walk further down the stream.
		t2, tr2, err2 := b.cl.Hasher().RecoveryTarget(
			b.cl, uint64(group), rep, b.cl.BlockBytes, exclude, trial+1)
		if err2 != nil || !b.cl.ReserveTarget(t2) {
			return -1, 0, false
		}
		return t2, tr2, true
	}
	return target, trial, true
}

// pickTargetSpread is pickTarget under rack-aware placement: the
// candidate's rack must hold neither an intact block of the group nor a
// concurrent rebuild target's block, so a repaired group keeps the
// one-block-per-rack invariant.
//
//farm:hotpath rack-aware redirection/targeting, gated by TestSingleRunAllocCeiling
func (b *base) pickTargetSpread(group, rep, startTrial int) (target, trial int, ok bool) {
	exclude := b.cl.BuddyExcludes(group)
	rackEx := b.cl.BuddyRackExcludes(group)
	for _, t := range b.perGroupTargets[group] {
		exclude.Add(t)
		rackEx.Add(b.net.RackOf(t))
	}
	target, trial, err := b.cl.Hasher().RecoveryTargetSpread(
		b.cl, b.net, uint64(group), rep, b.cl.BlockBytes, exclude, rackEx, startTrial)
	if err != nil {
		return -1, 0, false
	}
	if !b.cl.ReserveTarget(target) {
		t2, tr2, err2 := b.cl.Hasher().RecoveryTargetSpread(
			b.cl, b.net, uint64(group), rep, b.cl.BlockBytes, exclude, rackEx, trial+1)
		if err2 != nil || !b.cl.ReserveTarget(t2) {
			return -1, 0, false
		}
		return t2, tr2, true
	}
	return target, trial, true
}

// rebuildsTouching returns copies of the rebuild lists for a disk, since
// handlers mutate the underlying indexes. The copies live in reusable
// scratch buffers owned by the engine (valid until the next call); the
// simulation loop is single-threaded and handlers do not re-enter, so
// one pair of buffers suffices and steady state allocates nothing.
//
//farm:hotpath failure fan-out scratch, reuses engine-owned buffers
func (b *base) rebuildsTouching(diskID int) (asSource, asTarget []*rebuild) {
	b.scratchSrc = append(b.scratchSrc[:0], b.bySource[diskID]...)
	b.scratchTgt = append(b.scratchTgt[:0], b.byTarget[diskID]...)
	return b.scratchSrc, b.scratchTgt
}
