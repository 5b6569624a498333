package recovery

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the engines' foreground-coexistence layer: the throttle
// policy governing how much bandwidth recovery may take from users, the
// degraded-read latency sampling that prices each block's window of
// vulnerability, and the write-fence park/resume machinery for rolling
// upgrades. Everything here is dormant (fg == nil, no fences raised)
// until SetForeground / HandleWriteFence wire it in, so a run without
// foreground traffic is byte-identical to a tree without this file.

// SetForeground implements Engine.
func (b *base) SetForeground(fg *workload.Foreground) {
	b.fg = fg
	b.lastThrottle = 0
}

// SetDetailObserver implements Engine.
func (b *base) SetDetailObserver(fn func(now sim.Time, kind trace.Kind, group, rep, diskID int, detail string)) {
	b.detailObserver = fn
}

// throttleMBps asks the QoS policy for the recovery rate at a decision
// point (a rebuild being created), feeding it the fleet user share and
// the engine's current backlog. Rate changes are counted as throttle
// steps and traced; the policy's hysteresis keeps them sparse.
func (b *base) throttleMBps(now float64) float64 {
	fg := b.fg
	fleet := fg.Demand.FleetShare(now)
	bl := workload.Backlog{
		PendingBytes: int64(b.inFlight) * b.cl.BlockBytes,
		Streams:      b.activeTargets,
		MTTFHours:    fg.MTTFHours,
	}
	mbps := fg.Policy.RecoveryMBps(now, fleet, bl)
	b.stats.ThrottleMBps.Add(mbps)
	if mbps != b.lastThrottle {
		if b.lastThrottle != 0 {
			b.tally.ThrottleSteps++
			if b.detailObserver != nil {
				b.detailObserver(sim.Time(now), trace.KindThrottle, -1, -1, -1,
					fmt.Sprintf("mbps=%.2f share=%.3f", mbps, fleet))
			}
		}
		b.lastThrottle = mbps
	}
	return mbps
}

// sampleDegradedReads prices one just-closed window of vulnerability in
// user-visible latency: user reads that landed on the lost block while
// it was missing were served by k-way reconstruction, stretched by the
// contention of the moment, the source's fail-slow factor, and the
// cross-rack fabric. The arrivals are Poisson in the window at the
// demand model's read rate scaled by the local user share; each sample
// also records the counterfactual healthy-read latency at the same
// instant, so the degraded/healthy gap is measured on identical traffic.
// All randomness draws from the bundle's private stream — enabling the
// sampler cannot perturb failure, placement, or injection schedules.
func (b *base) sampleDegradedReads(now sim.Time, r *rebuild, t *Task, windowHours float64) {
	fg := b.fg
	if fg == nil || windowHours <= 0 {
		return
	}
	cfg := fg.Demand.Config()
	if cfg.ReadsPerBlockHour <= 0 {
		return
	}
	start := float64(r.failedAt)
	mean := cfg.ReadsPerBlockHour * fg.Demand.Share(start+windowHours/2, t.Source) * windowHours
	n := workload.Poisson(fg.Reads, mean)
	if n == 0 {
		return
	}
	// Cap the per-block sample count: a marathon window under heavy load
	// would otherwise dominate the run's latency distribution with tens
	// of thousands of identical draws. The quantiles converge long before
	// the cap binds.
	if n > 32 {
		n = 32
	}
	// The recovery stream's own share of the source disk, implied by the
	// transfer the block actually rode: the causal channel from throttle
	// policy to user latency (a polite policy stretches windows, an
	// aggressive one stretches every concurrent user read).
	recShare := 0.0
	if fg.DiskMBps > 0 && t.shaped > 0 {
		recShare = float64(b.cl.BlockBytes) / (float64(t.shaped) * 3600 * 1e6) / fg.DiskMBps
	}
	slow := 1.0
	if b.pd != nil {
		slow = b.pd.SlowdownFactor(t.Source)
	}
	cross := 1.0
	if b.net != nil && !b.net.SameRack(t.Source, t.Target) && fg.CrossRackFactor > 1 {
		cross = fg.CrossRackFactor
	}
	var sum, max float64
	for i := 0; i < n; i++ {
		at := start + fg.Reads.Float64()*windowHours
		share := fg.Demand.Share(at, t.Source)
		healthy := cfg.HealthyLatencyMs * workload.ContentionFactor(share)
		lat := cfg.HealthyLatencyMs * fg.KFactor * slow * cross *
			workload.ContentionFactor(share+recShare)
		b.tally.DegradedReads++
		b.stats.DegradedMs.Add(lat)
		b.stats.DegradedP50.Add(lat)
		b.stats.DegradedP99.Add(lat)
		b.stats.HealthyP99.Add(healthy)
		if b.hists.degradedMs != nil {
			b.hists.degradedMs.Observe(lat)
		}
		sum += lat
		if lat > max {
			max = lat
		}
	}
	if b.detailObserver != nil {
		b.detailObserver(now, trace.KindDegradedReads, t.Group, t.Rep, t.Source,
			fmt.Sprintf("n=%d mean=%.3f max=%.3f", n, sum/float64(n), max))
	}
}

// HandleWriteFence implements Engine: disk diskID turned read-only at
// now (a rolling-upgrade window). Rebuilds writing to it park — the
// work and the reservation stand; the fence will lift. Rebuilds reading
// from it are untouched (fenced disks serve reads), but in-flight
// hedges writing to it are dropped as always-best-effort duplicates.
func (b *base) HandleWriteFence(now sim.Time, diskID int) {
	// cancelHedge mutates the index being scanned, so restart the scan
	// after each cancellation rather than ranging over it.
	for {
		var victim *rebuild
		for _, rs := range b.hedgeByDisk[diskID] {
			if rs.hedgeTask != nil && rs.hedgeTask.Target == diskID {
				victim = rs
				break
			}
		}
		if victim == nil {
			break
		}
		b.cancelHedge(victim)
	}
	_, asTarget := b.rebuildsTouching(diskID)
	for _, r := range asTarget {
		if !r.parked {
			b.tally.FencedParks++
			b.park(r)
		}
	}
}

// HandleWriteUnfence implements Engine: disk diskID's write fence
// lifted at now. Every parked rebuild writing to it re-attempts.
func (b *base) HandleWriteUnfence(now sim.Time, diskID int) {
	_, asTarget := b.rebuildsTouching(diskID)
	for _, r := range asTarget {
		if r.parked {
			b.resumeParked(now, r)
		}
	}
}
