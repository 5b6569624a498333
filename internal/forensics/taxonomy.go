package forensics

import "repro/internal/trace"

// Loss taxonomy. Classification is deterministic: the rules below are
// tried in order and the first match wins, so the same trace always
// yields the same verdicts.
//
// data-loss events:
//
//  1. ClassFalseDead — a false-dead declaration fired at this exact
//     instant: the loss is the write-off of a dark rack's drives.
//  2. ClassLSERebuild — an lse-detect on the event's disk at this exact
//     instant: a rebuild read tripped over a latent error and took the
//     group's last redundancy.
//  3. ClassLSEScrub — likewise, discovered by the scrubber.
//  4. ClassBurstSpare — a correlated burst within the association
//     window AND a spare-pool wait within it: the burst outran the
//     exhausted pool.
//  5. ClassBurst — a correlated burst within the association window.
//  6. ClassIndependent — none of the above: independent failures
//     stacked up faster than recovery.
//
// dropped events (span evidence required; spans off → ClassUnattributed):
//
//  1. ClassSourceExhaustion — the re-sourcing ladder exceeded the cap.
//  2. ClassTimeout — the straggler timeout condemned the attempt
//     before it dropped.
//  3. ClassGroupLost — the group died while the rebuild was in flight;
//     the drop just drains work the loss already orphaned.
const (
	ClassFalseDead        = "false-dead-writeoff"
	ClassLSERebuild       = "lse-during-rebuild"
	ClassLSEScrub         = "lse-at-scrub"
	ClassBurstSpare       = "burst+spare-exhaustion"
	ClassBurst            = "correlated-burst"
	ClassIndependent      = "independent-failures"
	ClassSourceExhaustion = "source-exhaustion"
	ClassTimeout          = "timeout-abandon"
	ClassGroupLost        = "group-lost"
	ClassUnattributed     = "unattributed"
)

// Classes lists every taxonomy class in display order: data-loss
// classes first, drop classes after, most specific first within each.
var Classes = []string{
	ClassFalseDead, ClassLSERebuild, ClassLSEScrub,
	ClassBurstSpare, ClassBurst, ClassIndependent,
	ClassSourceExhaustion, ClassTimeout, ClassGroupLost,
	ClassUnattributed,
}

// lossPostmortem builds the postmortem for one data-loss event.
func (a *analyzer) lossPostmortem(e trace.Event) Postmortem {
	p := Postmortem{
		T: e.Time, Kind: trace.KindDataLoss,
		Disk: int(e.Disk), Group: -1, Rep: -1, Groups: max(int(e.N), 1),
	}
	// id is the rebuild whose history the chain shows: the open span's,
	// when that span is the postmortem's block.
	var id int32
	switch {
	case a.falseDead.ok && a.falseDead.t == e.Time:
		p.Class = ClassFalseDead
		// The window is the whole outage: the data became unavailable
		// when the rack went dark, and the write-off ends the wait.
		p.WindowHours = e.Time - a.falseDead.since
		p.Blame = Blame{Stalled: 1}
		a.ch.link(a.falseDead.since, trace.KindRackUnreachable.String()).num("rack", int64(a.falseDead.rack))
		a.ch.link(a.falseDead.t, trace.KindFalseDead.String()).num("rack", int64(a.falseDead.rack))
		a.ch.link(e.Time, trace.KindDiskFail.String()).num("disk", int64(e.Disk))
	case hitAt(a.lastLSEDetect, e.Disk, e.Time):
		h := a.lastLSEDetect[e.Disk]
		p.Class = ClassLSERebuild
		p.Group, p.Rep = h.group, h.rep
		a.ch.link(h.t, trace.KindLSEDetect.String()).num("disk", int64(e.Disk)).num("group", int64(h.group))
		id = a.windowFromOpenSpan(&p, e, h.group)
	case hitAt(a.lastScrubRepair, e.Disk, e.Time):
		h := a.lastScrubRepair[e.Disk]
		p.Class = ClassLSEScrub
		p.Group, p.Rep = h.group, h.rep
		a.ch.link(h.t, trace.KindScrubRepair.String()).num("disk", int64(e.Disk)).num("group", int64(h.group))
		id = a.windowFromOpenSpan(&p, e, h.group)
	case a.burst.Kind == trace.KindBurst && e.Time-a.burst.Time <= burstAssocHours:
		if a.spare.Kind == trace.KindSpareQueued && e.Time-a.spare.Time <= burstAssocHours {
			p.Class = ClassBurstSpare
			a.ch.link(a.burst.Time, trace.KindBurst.String()).num("kills", int64(a.burst.N))
			a.ch.link(a.spare.Time, trace.KindSpareQueued.String())
		} else {
			p.Class = ClassBurst
			a.ch.link(a.burst.Time, trace.KindBurst.String()).num("kills", int64(a.burst.N))
		}
		id = a.windowFromOpenSpan(&p, e, -1)
	default:
		p.Class = ClassIndependent
		if t, ok := a.diskFailAt[e.Disk]; ok {
			a.ch.link(t, trace.KindDiskFail.String()).num("disk", int64(e.Disk))
		}
		id = a.windowFromOpenSpan(&p, e, -1)
	}
	a.finishChain(&p, e.Time, id)
	return p
}

// hitAt reports whether the map holds a hit for the disk at exactly t
// (the presence check guards the zero lseHit from aliasing a hit at 0).
func hitAt(m map[int32]lseHit, disk int32, t float64) bool {
	h, ok := m[disk]
	return ok && h.t == t
}

// windowFromOpenSpan anchors a loss postmortem's window on the
// earliest-failed rebuild still open at the loss instant — for an
// LSE-class loss, open on the struck group; for burst/independent
// losses, the longest-exposed rebuild anywhere (the fleet's deepest
// exposure when the music stopped). Without span evidence the loss is
// Instant: no reconstruction was in flight, or spans were off. Returns
// the span's rebuild id when the span is the postmortem's block, else 0.
func (a *analyzer) windowFromOpenSpan(p *Postmortem, e trace.Event, group int) int32 {
	sp := a.openSpanOn(e.Time, group)
	if sp == nil {
		p.WindowHours = 0
		p.Blame = Blame{Instant: 1}
		return 0
	}
	if p.Group < 0 {
		p.Group, p.Rep = sp.Group, sp.Rep
	}
	p.WindowHours = e.Time - sp.FailedAt
	p.Blame = a.blameFromSpan(sp, e.Time, e.Disk)
	a.ch.link(sp.FailedAt, "block-failed").num("group", int64(sp.Group)).num("rep", int64(sp.Rep))
	if sp.Group != p.Group || sp.Rep != p.Rep {
		return 0
	}
	return sp.Rebuild
}

// dropPostmortem builds the postmortem for one dropped-rebuild event.
func (a *analyzer) dropPostmortem(e trace.Event) Postmortem {
	id := e.Rebuild
	p := Postmortem{
		T: e.Time, Kind: trace.KindDropped,
		Disk: int(e.Disk), Group: int(e.Group), Rep: int(e.Rep),
	}
	sp := a.byID[id]
	if sp == nil {
		p.Class = ClassUnattributed
		p.Blame = Blame{Instant: 1}
		a.finishChain(&p, e.Time, id)
		return p
	}
	switch {
	case sp.Resourcings > a.ctx.maxResourcings():
		p.Class = ClassSourceExhaustion
	case sp.TimedOut:
		p.Class = ClassTimeout
	default:
		p.Class = ClassGroupLost
	}
	p.WindowHours = sp.DoneAt - sp.FailedAt
	p.Blame = a.blameFromSpan(sp, sp.DoneAt, e.Disk)
	a.ch.link(sp.FailedAt, "block-failed").num("group", int64(sp.Group)).num("rep", int64(sp.Rep))
	if sp.Retries > 0 || sp.Resourcings > 0 || sp.Redirections > 0 {
		a.ch.link(sp.QueuedAt, "retry-ladder").num("retries", int64(sp.Retries)).
			num("resourcings", int64(sp.Resourcings)).num("redirections", int64(sp.Redirections))
	}
	if t, ok := a.timedOutAt[id]; ok {
		a.ch.link(t, trace.KindRebuildTimeout.String())
	}
	if t, ok := a.hedgeAt[id]; ok {
		a.ch.link(t, trace.KindHedge.String())
	}
	a.finishChain(&p, e.Time, id)
	return p
}

// finishChain appends the chain links shared by every postmortem — the
// parked intervals and cross-rack flight of rebuild id (0 for none), the
// throttle step and fail-slow episode in effect at the loss — then
// time-sorts and caps the chain (chains.finish).
//
//farm:hotpath one call per postmortem
func (a *analyzer) finishChain(p *Postmortem, t float64, id int32) {
	if id > 0 {
		pl := a.parks[id]
		for _, ps := range pl.spans[:pl.n] {
			a.ch.link(ps.from, trace.KindRebuildParked.String())
			a.ch.link(ps.to, trace.KindRebuildResumed.String())
		}
		if from, ok := a.parkFrom[id]; ok {
			a.ch.link(from, trace.KindRebuildParked.String()).word("unresumed")
		}
		if ct, ok := a.crossRackAt[id]; ok {
			a.ch.link(ct, trace.KindResourceCrossRack.String())
		}
	}
	if a.throttle.Kind == trace.KindThrottle && a.throttle.Time <= t {
		a.ch.link(a.throttle.Time, trace.KindThrottle.String()).
			fixed("mbps", a.throttle.X, 2).fixed("share", a.throttle.Y, 3)
	}
	if f, ok := a.slowFactor[int32(p.Disk)]; ok && f > 1 {
		a.ch.link(t, trace.KindFailSlowOnset.String()).general("factor", f)
	}
	a.ch.finish()
}
