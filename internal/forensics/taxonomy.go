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

// lossPostmortem starts the postmortem for data-loss event e in slot
// seq. A false-dead write-off needs no rebuild and is written at once;
// any other loss snapshots what it reads at e and waits, as a pending
// loss, for its window's rebuild (see live.go).
func (a *Analyzer) lossPostmortem(e trace.Event, seq int) {
	p := &a.rep.Posts[seq]
	*p = Postmortem{
		Seq: seq, T: e.Time, Kind: trace.KindDataLoss,
		Disk: int(e.Disk), Group: -1, Rep: -1, Groups: max(int(e.N), 1),
	}
	if a.falseDead.ok && a.falseDead.t == e.Time {
		p.Class = ClassFalseDead
		// The window is the whole outage: the data became unavailable
		// when the rack went dark, and the write-off ends the wait.
		p.WindowHours = e.Time - a.falseDead.since
		p.Blame = Blame{Stalled: 1}
		a.ch.link(a.falseDead.since, trace.KindRackUnreachable.String()).num("rack", int64(a.falseDead.rack))
		a.ch.link(a.falseDead.t, trace.KindFalseDead.String()).num("rack", int64(a.falseDead.rack))
		a.ch.link(e.Time, trace.KindDiskFail.String()).num("disk", int64(e.Disk))
		a.finishChain(p, e.Time, a.instantAt(e.Disk), nil)
		a.ch.finish(seq)
		return
	}
	pl := a.newLoss()
	pl.seq, pl.e, pl.at, pl.group = seq, e, a.instantAt(e.Disk), -1
	lse, scrub := at(a.lse, e.Disk), at(a.scrub, e.Disk)
	switch {
	case lse.ok && lse.t == e.Time:
		p.Class, pl.hit = ClassLSERebuild, lse
	case scrub.ok && scrub.t == e.Time:
		p.Class, pl.hit = ClassLSEScrub, scrub
	case a.burst.Kind == trace.KindBurst && e.Time-a.burst.Time <= burstAssocHours:
		p.Class, pl.burst = ClassBurst, a.burst
		if a.spare.Kind == trace.KindSpareQueued && e.Time-a.spare.Time <= burstAssocHours {
			p.Class, pl.spare = ClassBurstSpare, a.spare
		}
	default:
		p.Class, pl.failed = ClassIndependent, at(a.failed, e.Disk)
	}
	if pl.hit.ok {
		// A latent error anchors the window on the struck group.
		p.Group, p.Rep = int(pl.hit.group), int(pl.hit.rep)
		pl.group = p.Group
	}
	if l := a.spans.best(e.Time, pl.group); l != nil {
		pl.take(l)
	}
	a.open = append(a.open, pl)
}

// completeLoss writes a pending loss's postmortem: its class anchors,
// the window on its rebuild, and the chain links every postmortem
// shares. It returns pl to the pool.
func (a *Analyzer) completeLoss(pl *pendingLoss) {
	p, e := &a.rep.Posts[pl.seq], pl.e
	switch p.Class {
	case ClassLSERebuild:
		a.ch.link(pl.hit.t, trace.KindLSEDetect.String()).num("disk", int64(e.Disk)).num("group", int64(pl.hit.group))
	case ClassLSEScrub:
		a.ch.link(pl.hit.t, trace.KindScrubRepair.String()).num("disk", int64(e.Disk)).num("group", int64(pl.hit.group))
	case ClassBurstSpare:
		a.ch.link(pl.burst.Time, trace.KindBurst.String()).num("kills", int64(pl.burst.N))
		a.ch.link(pl.spare.Time, trace.KindSpareQueued.String())
	case ClassBurst:
		a.ch.link(pl.burst.Time, trace.KindBurst.String()).num("kills", int64(pl.burst.N))
	default:
		if pl.failed.ok {
			a.ch.link(pl.failed.t, trace.KindDiskFail.String()).num("disk", int64(e.Disk))
		}
	}
	a.finishChain(p, e.Time, pl.at, a.window(p, pl))
	a.ch.finish(pl.seq)
	if pl.cand != nil {
		pl.cand.pins--
	}
	a.freeLoss = append(a.freeLoss, pl)
}

// window anchors a loss postmortem's window on its rebuild — for an
// LSE-class loss, the earliest-failed one open on the struck group; for
// burst/independent losses, the longest-exposed one anywhere (the
// fleet's deepest exposure when the music stopped). Without one the
// loss is Instant: no reconstruction was in flight, or spans were off.
// It returns the rebuild's history at the loss when the rebuild is the
// postmortem's block, else nil.
func (a *Analyzer) window(p *Postmortem, pl *pendingLoss) *history {
	if pl.cand == nil {
		p.WindowHours = 0
		p.Blame = Blame{Instant: 1}
		return nil
	}
	sp := pl.cand.sp
	if p.Group < 0 {
		p.Group, p.Rep = sp.Group, sp.Rep
	}
	p.WindowHours = p.T - sp.FailedAt
	p.Blame = a.blameFromSpan(sp, p.T, pl.at, pl.hist.crossRack)
	a.ch.link(sp.FailedAt, "block-failed").num("group", int64(sp.Group)).num("rep", int64(sp.Rep))
	if sp.Rebuild <= 0 || sp.Group != p.Group || sp.Rep != p.Rep {
		return nil
	}
	return &pl.hist
}

// dropPostmortem writes the postmortem for dropped event e in slot seq.
// The drop follows its span's finish, so the span is final.
func (a *Analyzer) dropPostmortem(e trace.Event, seq int) {
	p := &a.rep.Posts[seq]
	*p = Postmortem{
		Seq: seq, T: e.Time, Kind: trace.KindDropped,
		Disk: int(e.Disk), Group: int(e.Group), Rep: int(e.Rep),
	}
	at := a.instantAt(e.Disk)
	l := a.spans.byID(e.Rebuild)
	if l == nil {
		p.Class = ClassUnattributed
		p.Blame = Blame{Instant: 1}
		a.finishChain(p, e.Time, at, nil)
		a.ch.finish(seq)
		return
	}
	sp := l.sp
	switch {
	case sp.Resourcings > a.ctx.maxResourcings():
		p.Class = ClassSourceExhaustion
	case sp.TimedOut:
		p.Class = ClassTimeout
	default:
		p.Class = ClassGroupLost
	}
	p.WindowHours = sp.DoneAt - sp.FailedAt
	p.Blame = a.blameFromSpan(sp, sp.DoneAt, at, l.hist.crossRack)
	a.ch.link(sp.FailedAt, "block-failed").num("group", int64(sp.Group)).num("rep", int64(sp.Rep))
	if sp.Retries > 0 || sp.Resourcings > 0 || sp.Redirections > 0 {
		a.ch.link(sp.QueuedAt, "retry-ladder").num("retries", int64(sp.Retries)).
			num("resourcings", int64(sp.Resourcings)).num("redirections", int64(sp.Redirections))
	}
	if l.hist.timedOut.ok {
		a.ch.link(l.hist.timedOut.t, trace.KindRebuildTimeout.String())
	}
	if l.hist.hedge.ok {
		a.ch.link(l.hist.hedge.t, trace.KindHedge.String())
	}
	var h *history
	if e.Rebuild > 0 {
		h = &l.hist
	}
	a.finishChain(p, e.Time, at, h)
	a.ch.finish(seq)
}

// finishChain appends the chain links shared by every postmortem — the
// parked intervals and cross-rack flight in h, the history of the
// postmortem's rebuild (nil for none), and the throttle step and
// fail-slow episode in effect at the loss — before the chain is
// time-sorted and capped (chains.finish).
//
//farm:hotpath one call per postmortem
func (a *Analyzer) finishChain(p *Postmortem, t float64, at instant, h *history) {
	if h != nil {
		for _, ps := range h.parks.spans[:h.parks.n] {
			a.ch.link(ps.from, trace.KindRebuildParked.String())
			a.ch.link(ps.to, trace.KindRebuildResumed.String())
		}
		if h.parkFrom.ok {
			a.ch.link(h.parkFrom.t, trace.KindRebuildParked.String()).word("unresumed")
		}
		if h.crossRack.ok {
			a.ch.link(h.crossRack.t, trace.KindResourceCrossRack.String())
		}
	}
	if at.throttle.Kind == trace.KindThrottle && at.throttle.Time <= t {
		a.ch.link(at.throttle.Time, trace.KindThrottle.String()).
			fixed("mbps", at.throttle.X, 2).fixed("share", at.throttle.Y, 3)
	}
	if at.slow > 1 {
		a.ch.link(t, trace.KindFailSlowOnset.String()).general("factor", at.slow)
	}
}
