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

// Env is everything a recovery engine works in and with, fixed for the
// run: the constructors (NewFARM, NewSpareDisk) take it once, before the
// first event. Cluster, Sim, Sched, Throttle and Tally are required; every
// other field is an optional layer whose zero value leaves it dormant and
// the engine's behaviour bit-for-bit that of a tree without it.
type Env struct {
	Cluster *cluster.Cluster
	Sim     *sim.Engine
	Sched   *Scheduler
	// Throttle is the run's one recovery-rate decision: every rebuild
	// asks it for its per-disk rate (the fixed policy at 16 MB/s is the
	// paper's base model).
	Throttle workload.ThrottlePolicy
	// Tally receives the engine's event counters.
	Tally *obs.Tally
	// Faults is the fault-injection surface probed when transfers
	// complete; nil disables probing.
	Faults FaultModel
	// Straggler switches the straggler-mitigation layer on (its tuning
	// is fixed, see straggler.go); the zero value is disabled. Evict,
	// optional, is fired at most once per disk the peer-comparison
	// detector condemns; the core simulator binds it to the S.M.A.R.T.
	// suspect/drain path.
	Straggler StragglerPolicy
	Evict     func(now sim.Time, diskID int)
	// Net is the run's network fabric: transfer durations become
	// contention-shaped, unreachable endpoints park rebuilds, and
	// re-sourcing prefers reachable racks. Nil keeps the flat model.
	Net *topology.Network
	// Foreground is the run's foreground-traffic bundle: rebuild
	// transfers contend with user load, the throttle policy sees the
	// fleet user share, and completed windows sample degraded-read
	// latency. Nil keeps every fast path.
	Foreground *workload.Foreground
	// Obs supplies the flight-recorder surfaces: the per-rebuild
	// histograms when Obs.Registry is set, the rebuild-lifecycle span sink
	// when Obs.Spans is set. Nil disables both.
	Obs *obs.RunObserver
	// Observer receives every event the engine emits, fully built; nil
	// disables tracing.
	Observer func(trace.Event)
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
	// Stats returns the engine's distribution accumulators.
	Stats() *Stats
	// InFlight returns the number of tracked block rebuilds (read-only;
	// feeds the state sampler).
	InFlight() int
	// HandleUnreachable reacts to diskID's rack going dark at now:
	// rebuilds writing to it park, rebuilds reading from it re-source
	// (or park when no reachable buddy exists).
	HandleUnreachable(now sim.Time, diskID int)
	// HandleReachable reacts to diskID's rack healing: rebuilds parked
	// against the disk resubmit.
	HandleReachable(now sim.Time, diskID int)
	// GrantMBps returns the per-disk recovery rate of the throttle
	// policy's last grant (zero before the first rebuild). Read-only: it
	// never consults the policy, which may be stateful.
	GrantMBps() float64
	// HandleWriteFence reacts to diskID turning read-only at now (a
	// rolling-upgrade window): rebuilds writing to it park. Reads are
	// unaffected — a fenced disk still serves as a rebuild source.
	HandleWriteFence(now sim.Time, diskID int)
	// HandleWriteUnfence reacts to diskID's write fence lifting: rebuilds
	// parked against it resubmit.
	HandleWriteUnfence(now sim.Time, diskID int)
	// Grow extends the engine's and its scheduler's per-disk tables to
	// numDisks after disks join the cluster.
	Grow(numDisks int)
}

// DiskSpawner lets an engine add drives to the system; the simulator hooks
// it to schedule failure events for the new drives. Returns the disk ID.
type DiskSpawner func(now sim.Time) int

// rebuild carries the engine-level state of one block reconstruction.
// Records come from the engine's slab (see slab.go) and return to it at
// the rebuild's terminal point, so the steady-state lifecycle allocates
// nothing.
type rebuild struct {
	// task is the primary transfer and hedge the duplicate one. Both are
	// re-pointed in place for every attempt (setTask), once the previous
	// attempt is done or cancelled — and so out of the scheduler's
	// queues.
	task     Task
	hedge    Task
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
	// the in-flight duplicate transfer (&hedge, nil when none); hedged
	// records that the rebuild has launched its one duplicate.
	hedgeEv   sim.Handle
	timeoutEv sim.Handle
	hedgeTask *Task
	hedged    bool
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
	// id is the rebuild's id (see open).
	id int32
	// rec is the record's index in the slab (base.record); its timer
	// events carry it as their argument.
	rec int32
	// next links the record into the slab's free list.
	next *rebuild
}

// base holds the machinery common to both engines.
type base struct {
	cl    *cluster.Cluster
	eng   *sim.Engine
	sched *Scheduler
	// throttle is the run's one recovery-rate decision: every rebuild
	// asks it for its rate (fixed in the paper's base experiments, idle
	// under adaptive recovery, §2.4; see throttleMBps).
	throttle workload.ThrottlePolicy
	stats    Stats
	// tally is the run's outcome record; every engine event counter is
	// written there, once per event.
	tally *obs.Tally
	// bySource and byTarget index live rebuilds by the disks they touch,
	// one list per disk id (Grow extends them); lists holds the backing
	// arrays of these and hedgeByDisk.
	bySource diskLists
	byTarget diskLists
	lists    listPool
	// groupTargets heads, per group, the list of in-flight rebuild and
	// hedge tasks (threaded through Task.groupNext) so two rebuilds of
	// one group never pick the same disk. A group's key is deleted when
	// its list empties, so the map stays at the peak number of
	// concurrently repairing groups.
	groupTargets map[int32]*Task
	// slab holds the rebuild records in fixed-size chunks and slabFree
	// heads their free list (see newRebuild).
	slab     [][]rebuild
	slabFree *rebuild
	// onRetry, onHedge and onTimeout are the records' timer handlers,
	// bound once the first time any record arms a timer (bindTimers);
	// each timer event carries its record's index.
	onRetry, onHedge, onTimeout func(now sim.Time, rec int)
	// observer, when set, receives every traced engine event.
	observer func(trace.Event)
	// lastID is the id of the most recently opened rebuild.
	lastID int32
	// fm, when set, injects read faults into completing transfers.
	fm FaultModel
	// scratchSrc/scratchTgt are reusable buffers for rebuildsTouching:
	// handlers mutate the underlying indexes while iterating, so the
	// lists are copied — into these, not fresh slices.
	scratchSrc []*rebuild
	scratchTgt []*rebuild
	// det/evict are the straggler-mitigation layer; det is nil (and
	// every related code path dormant) unless Env.Straggler is enabled.
	det   *stragglerDetector
	evict func(now sim.Time, diskID int)
	// hedgeByDisk indexes in-flight hedge transfers by both endpoints so
	// disk deaths can drop them (one list per disk id, like bySource).
	hedgeByDisk diskLists
	// hists are the per-rebuild registry histograms (all nil when no
	// registry is attached).
	hists histograms
	// spans, when non-nil, receives one lifecycle span per block rebuild.
	spans obs.SpanSink
	// inFlight counts tracked rebuilds (read-only sampler feed).
	inFlight int
	// net, when non-nil, is the run's network fabric (Env.Net).
	net *topology.Network
	// fg, when non-nil, is the run's foreground-traffic bundle
	// (Env.Foreground): demand contention and degraded-read sampling.
	// activeTargets counts distinct disks with in-flight rebuild writes —
	// the parallel-stream estimate the deadline policy's repair bound
	// divides the backlog by. lastThrottle is the previous policy grant,
	// for throttle-step detection and the sampler (GrantMBps).
	fg            *workload.Foreground
	activeTargets int
	lastThrottle  float64
}

// init sets up the machinery in place from env (the scheduler's hooks
// bind b's final address) and claims the scheduler for this engine.
func (b *base) init(env Env) {
	cl, sched := env.Cluster, env.Sched
	n := cl.NumDisks()
	*b = base{
		cl:           cl,
		eng:          env.Sim,
		sched:        sched,
		throttle:     env.Throttle,
		tally:        env.Tally,
		groupTargets: make(map[int32]*Task),
		observer:     env.Observer,
		fm:           env.Faults,
		evict:        env.Evict,
		net:          env.Net,
		fg:           env.Foreground,
	}
	b.bySource = newDiskLists(n, &b.lists)
	b.byTarget = newDiskLists(n, &b.lists)
	b.hedgeByDisk = newDiskLists(n, &b.lists)
	b.stats.WindowP50 = metrics.NewP2(0.5)
	b.stats.WindowP99 = metrics.NewP2(0.99)
	b.stats.DegradedP50 = metrics.NewP2(0.5)
	b.stats.DegradedP99 = metrics.NewP2(0.99)
	b.stats.HealthyP99 = metrics.NewP2(0.99)
	sched.OnDone = b.transferDone
	if b.net != nil {
		sched.Shape = b.shapeTransfer
		sched.Release = b.releaseTransfer
	}
	if env.Straggler.Enabled {
		b.det = newStragglerDetector(n)
	}
	if env.Obs != nil {
		b.initObs(env.Obs)
	}
}

func (b *base) Stats() *Stats { return &b.stats }

// Grow implements Engine: it extends the scheduler's and the engine's
// per-disk tables to numDisks.
func (b *base) Grow(numDisks int) {
	b.sched.Grow(numDisks)
	b.bySource.grow(numDisks)
	b.byTarget.grow(numDisks)
	b.hedgeByDisk.grow(numDisks)
}

// emit fires the observer, if installed, with one event.
func (b *base) emit(e trace.Event) {
	if b.observer != nil {
		b.observer(e)
	}
}

// emitRebuild traces one event of rebuild id on (group, rep) at disk.
func (b *base) emitRebuild(now sim.Time, kind trace.Kind, id int32, group, rep, disk int) {
	if b.observer != nil {
		b.observer(trace.Event{Time: float64(now), Kind: kind, Rebuild: id,
			Group: int32(group), Rep: int32(rep), Disk: int32(disk)})
	}
}

// open opens one block rebuild detected now. It returns the rebuild's
// run-unique id (the trace's Event.Rebuild, drawn in open order from 1)
// and, when spans are enabled, its lifecycle span, announced by a
// rebuild-queued event. The spare engine carries both across a
// spare-pool wait and a target-death restart, so one block's rebuild
// keeps one id however often it restarts. open draws no randomness and
// schedules nothing.
func (b *base) open(group, rep int, failedAt sim.Time) (int32, *obs.Span) {
	b.lastID++
	if b.spans == nil {
		return b.lastID, nil
	}
	now := b.eng.Now()
	b.emitRebuild(now, trace.KindRebuildQueued, b.lastID, group, rep, -1)
	return b.lastID, b.spans.Start(b.lastID, group, rep, float64(failedAt), float64(now), float64(now))
}

// drop abandons opened rebuild r of (group, rep): it tallies the drop,
// finishes the span as dropped and traces the dropped event. Every drop
// of an opened rebuild goes through here; disk is the rebuild's target
// (-1 when it never had one).
//
// drop is a terminal point: r returns to the slab, so the caller must
// not touch it afterwards.
func (b *base) drop(now sim.Time, r *rebuild, group, rep, disk int) {
	b.tally.DroppedRebuilds++
	b.spanFinish(r.span, now, obs.OutcomeDropped)
	b.emitRebuild(now, trace.KindDropped, r.id, group, rep, disk)
	b.free(r)
}

// blockDuration is the healthy-model transfer time of one block rebuild
// requested now, at the rate the throttle policy grants — the
// expectation deadlines are measured against.
func (b *base) blockDuration() sim.Time {
	return sim.Time(disk.RebuildHours(b.cl.BlockBytes, b.throttleMBps(float64(b.eng.Now()))))
}

// effDuration scales a healthy-model duration by the worse of the two
// endpoints' fail-slow factors (Drive.SlowFactor) and, when a demand
// model is installed, by the contention stretch of the busier endpoint's
// user share. A healthy drive's factor is exactly 1, so with both
// endpoints healthy and no demand it returns baseDur bit-for-bit
// unchanged (no float multiply), and the dormant layers cannot perturb
// schedules.
func (b *base) effDuration(baseDur sim.Time, src, tgt int) sim.Time {
	f := b.cl.Disks[src].SlowFactor()
	if g := b.cl.Disks[tgt].SlowFactor(); g > f {
		f = g
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
//farm:hotpath in-flight index insert, gated by TestRebuildLifecycleZeroAlloc
func (b *base) track(r *rebuild) {
	src, tgt := r.task.Source, r.task.Target
	b.bySource.add(src, r)
	if len(b.byTarget.of(tgt)) == 0 {
		b.activeTargets++
	}
	b.byTarget.add(tgt, r)
	b.linkGroupTarget(&r.task)
	b.inFlight++
}

// untrack removes a rebuild from the disk indexes. It also cancels any
// pending backed-off resubmission and any straggler timer or in-flight
// hedge: every path that untracks (success, abandonment, redirection,
// re-sourcing, hedge win) supersedes them.
//
//farm:hotpath in-flight index removal, gated by TestRebuildLifecycleZeroAlloc
func (b *base) untrack(r *rebuild) {
	b.cancelTimers(r)
	src, tgt := r.task.Source, r.task.Target
	b.bySource.remove(src, r)
	if b.byTarget.remove(tgt, r) && len(b.byTarget.of(tgt)) == 0 {
		b.activeTargets--
	}
	b.unlinkGroupTarget(&r.task)
	b.inFlight--
}

// linkGroupTarget adds t's target to its group's in-flight target list.
//
//farm:hotpath per-group target index insert
func (b *base) linkGroupTarget(t *Task) {
	g := int32(t.Group)
	t.groupNext = b.groupTargets[g]
	b.groupTargets[g] = t
}

// unlinkGroupTarget removes t from its group's in-flight target list,
// deleting the group's key when the list empties.
//
//farm:hotpath per-group target index removal
func (b *base) unlinkGroupTarget(t *Task) {
	g := int32(t.Group)
	head := b.groupTargets[g]
	if head == t {
		if t.groupNext == nil {
			delete(b.groupTargets, g)
		} else {
			b.groupTargets[g] = t.groupNext
		}
		t.groupNext = nil
		return
	}
	for p := head; p != nil; p = p.groupNext {
		if p.groupNext == t {
			p.groupNext = t.groupNext
			t.groupNext = nil
			return
		}
	}
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

// complete finishes a rebuild: probe the source read for injected
// faults, then install the block and record the window.
//
//farm:hotpath every primary transfer end, gated by TestRebuildLifecycleZeroAlloc
func (b *base) complete(now sim.Time, r *rebuild) {
	// The attempt ran to completion whatever the probe below says; fold
	// its queue wait and transfer time into the span now.
	b.spanEndAttempt(r, now)
	if b.fm != nil {
		b.tally.ProbeReads++
		switch b.fm.ProbeRead(now, r.task.Source, r.task.Group) {
		case faults.ReadTransient:
			b.tally.TransientFaults++
			b.retryOrResource(now, r)
			return
		case faults.ReadLatent:
			b.tally.ProbeLatent++
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
		b.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
		return
	}
	b.cl.PlaceRecovered(r.task.Group, r.task.Rep, r.task.Target)
	b.tally.BlocksRebuilt++
	b.noteCrossRack(r.task.Source, r.task.Target)
	w := float64(now - r.failedAt)
	b.stats.Window.Add(w)
	b.recordWindow(w)
	b.sampleDegradedReads(now, r, &r.task, w)
	b.spanFinish(r.span, now, obs.OutcomeDone)
	b.noteTransfer(now, &r.task)
	b.emitRebuild(now, trace.KindRebuilt, r.id, r.task.Group, r.task.Rep, r.task.Target)
	b.free(r)
}

// abandon drops a rebuild whose group is beyond repair.
func (b *base) abandon(r *rebuild) {
	now := b.eng.Now()
	b.spanEndAttempt(r, now)
	b.sched.Cancel(&r.task)
	b.untrack(r)
	b.cl.ReleaseTarget(r.task.Target)
	b.drop(now, r, r.task.Group, r.task.Rep, r.task.Target)
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
		src = b.cl.RebuildSourceFor(r.task.Group, r.task.Target)
	}
	if src < 0 {
		// No intact block remains (with Available < m the group is
		// already latched lost, so this is unreachable unless m == 0).
		b.abandon(r)
		return
	}
	if b.net != nil && b.net.DiskUnreachable(src) {
		// Every intact buddy sits behind a dark switch: park the rebuild
		// until the rack heals instead of converting a partition into
		// data abandonment.
		b.parkOnSource(r, src)
		return
	}
	if b.net != nil && !b.net.SameRack(src, r.task.Source) {
		// Topology-aware re-sourcing crossed the fabric to another rack
		// (typically fleeing a dark or dead one).
		b.emitRebuild(b.eng.Now(), trace.KindResourceCrossRack, r.id, r.task.Group, r.task.Rep, src)
	}
	b.sched.Cancel(&r.task)
	b.untrack(r)
	b.setTask(&r.task, r, r.task.Group, r.task.Rep, src, r.task.Target)
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
	// Re-point the spent task at the same endpoints: it stays tracked
	// (the disk indexes key by endpoint) and idle until the backoff ends.
	b.setTask(&r.task, r, r.task.Group, r.task.Rep, r.task.Source, r.task.Target)
	r.retryArmedAt = now
	b.emitRebuild(now, trace.KindRetry, r.id, r.task.Group, r.task.Rep, r.task.Source)
	b.bindTimers()
	r.retryEv = b.eng.AfterArg(b.fm.RetryBackoff(r.retries), "rebuild-retry", b.onRetry, int(r.rec))
}

// retryFired resubmits a rebuild whose transient-fault backoff elapsed
// (its "rebuild-retry" event).
func (b *base) retryFired(at sim.Time, r *rebuild) {
	r.retryEv = sim.Handle{}
	if r.span != nil {
		r.span.RetryWait += float64(at - r.retryArmedAt)
	}
	if b.cl.GroupLost(r.task.Group) {
		b.abandon(r)
		return
	}
	b.submitTracked(r)
}

// setTask re-points t, one of r's two task records, at a new attempt of
// block (group, rep) from src to tgt, timed from r's base duration. The
// task is idle until submitted; its group-list link carries over. The
// task must not be waiting in a scheduler queue: every caller cancels
// the previous attempt, or finds it done, first.
func (b *base) setTask(t *Task, r *rebuild, group, rep, src, tgt int) {
	*t = Task{
		Group:     group,
		Rep:       rep,
		Source:    src,
		Target:    tgt,
		Duration:  b.effDuration(r.baseDur, src, tgt),
		rb:        r,
		groupNext: t.groupNext,
	}
}

// pickTarget applies the cluster's target rule (BuddyExcludes) via the
// placement candidate stream, additionally excluding targets — and,
// under rack-aware placement, their racks — already claimed by in-flight
// rebuilds of the same group. It reserves space on the chosen disk. The
// exclusion set is the cluster's reusable epoch-stamped scratch, so the
// steady-state path performs no allocation.
//
//farm:hotpath FARM redirection/targeting, gated by TestFARMPickTargetZeroAlloc
func (b *base) pickTarget(group, rep, startTrial int) (target, trial int, ok bool) {
	exclude := b.cl.BuddyExcludes(group)
	for t := b.groupTargets[int32(group)]; t != nil; t = t.groupNext {
		exclude.Add(t.Target)
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

// rebuildsTouching returns copies of the rebuild lists for a disk, since
// handlers mutate the underlying indexes. The copies live in reusable
// scratch buffers owned by the engine (valid until the next call); the
// simulation loop is single-threaded and handlers do not re-enter, so
// one pair of buffers suffices and steady state allocates nothing.
//
//farm:hotpath failure fan-out scratch, reuses engine-owned buffers
func (b *base) rebuildsTouching(diskID int) (asSource, asTarget []*rebuild) {
	b.scratchSrc = append(b.scratchSrc[:0], b.bySource.of(diskID)...)
	b.scratchTgt = append(b.scratchTgt[:0], b.byTarget.of(diskID)...)
	return b.scratchSrc, b.scratchTgt
}
