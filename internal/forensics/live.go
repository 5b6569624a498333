package forensics

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// This file is the analyzer's span side: the rebuilds it follows while
// they can still anchor a postmortem, and the loss postmortems waiting
// for their window's rebuild.
//
// A loss postmortem anchors its window on the earliest-failed rebuild
// whose block had failed by the loss instant t and which had not
// resolved before t. Two things it needs are not known at t. The
// rebuild may open after t, because a write-off backdates its failures
// to the start of the rack's outage and detection adds its latency; so
// the candidate set stays open until the clock passes t + the open lag.
// And the blame reads the rebuild's final phase accounting; so the
// postmortem is completed when its rebuild finishes, or at the horizon.
// Everything else it reads is snapshotted at t.

// history is what one rebuild's events have said so far.
type history struct {
	crossRack, timedOut, hedge, parkFrom stamp
	parks                                parkLog
}

// liveSpan is one rebuild the analyzer follows: its span and history.
type liveSpan struct {
	sp *obs.Span
	// own holds the span when the analyzer handed it out (Start); a
	// replayed span lives in the caller's slice.
	own obs.Span
	// seq is the open order: of two equally old candidates, the one
	// opened first anchors a loss.
	seq  int
	hist history
	// pins counts the pending postmortems whose candidate this is; a
	// pinned record is not recycled.
	pins int
}

const (
	// liveChunk is how many records one pool allocation holds.
	liveChunk = 64
	// minSweep is the fewest followed rebuilds a sweep waits for.
	minSweep = 64
)

// spanTable holds the followed rebuilds in open order. Records come
// from a pool that grows to the most rebuilds ever followed at once and
// is reused run after run.
type spanTable struct {
	live []*liveSpan
	ids  map[int32]*liveSpan
	free []*liveSpan
	seq  int
	// sweepAt is the length of live at which the next sweep runs.
	sweepAt int
}

// reset returns every record to the pool for a new run.
func (t *spanTable) reset() {
	t.free = append(t.free, t.live...)
	clear(t.live)
	t.live = t.live[:0]
	if t.ids == nil {
		t.ids = make(map[int32]*liveSpan)
	}
	clear(t.ids)
	t.seq, t.sweepAt = 0, minSweep
}

// get takes a zeroed record from the pool.
func (t *spanTable) get() *liveSpan {
	if len(t.free) == 0 {
		chunk := make([]liveSpan, liveChunk)
		for i := range chunk {
			t.free = append(t.free, &chunk[i])
		}
	}
	l := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	*l = liveSpan{}
	return l
}

// byID returns the followed rebuild id, nil if there is none.
func (t *spanTable) byID(id int32) *liveSpan { return t.ids[id] }

// add follows l, the newest rebuild.
func (t *spanTable) add(l *liveSpan) {
	l.seq = t.seq
	t.seq++
	t.live = append(t.live, l)
	t.ids[l.sp.Rebuild] = l
}

// sweep recycles every rebuild that finished before now and that no
// pending postmortem holds: no later loss can take it, and its dropped
// event, which follows its finish at the same instant, is past.
func (t *spanTable) sweep(now float64) {
	keep := t.live[:0]
	for _, l := range t.live {
		if sp := l.sp; sp.DoneAt >= 0 && sp.DoneAt < now && l.pins == 0 {
			if t.ids[sp.Rebuild] == l {
				delete(t.ids, sp.Rebuild)
			}
			t.free = append(t.free, l)
			continue
		}
		keep = append(keep, l)
	}
	clear(t.live[len(keep):])
	t.live = keep
	t.sweepAt = max(2*len(keep), minSweep)
}

// candidate reports whether sp can anchor the window of a loss at t,
// on group unless group < 0: its block had failed by t and its rebuild
// had not resolved before t.
func candidate(sp *obs.Span, t float64, group int) bool {
	return (group < 0 || sp.Group == group) && sp.FailedAt <= t && !(sp.DoneAt >= 0 && sp.DoneAt < t)
}

// best returns the earliest-failed candidate for a loss at t among the
// followed rebuilds (the first opened among equals), nil if none.
func (t *spanTable) best(at float64, group int) *liveSpan {
	var best *liveSpan
	for _, l := range t.live {
		if candidate(l.sp, at, group) && (best == nil || l.sp.FailedAt < best.sp.FailedAt) {
			best = l
		}
	}
	return best
}

// pendingLoss is a data-loss postmortem waiting for its window: the
// loss event, what the trace said at that instant, and the best
// candidate rebuild so far with its history at the loss.
type pendingLoss struct {
	seq int
	e   trace.Event
	at  instant
	// group restricts the candidates to one group (the LSE classes), or
	// is -1.
	group int
	// The class anchors: the latent-error discovery, the burst and the
	// spare-pool wait, or the disk's failure.
	hit          lseHit
	burst, spare trace.Event
	failed       stamp
	cand         *liveSpan
	hist         history
}

// take makes l the loss's candidate, with l's history as it stands.
func (pl *pendingLoss) take(l *liveSpan) {
	if pl.cand != nil {
		pl.cand.pins--
	}
	l.pins++
	pl.cand, pl.hist = l, l.hist
}

// newLoss takes a zeroed pending postmortem from the pool.
func (a *Analyzer) newLoss() *pendingLoss {
	var pl *pendingLoss
	if n := len(a.freeLoss); n > 0 {
		pl = a.freeLoss[n-1]
		a.freeLoss = a.freeLoss[:n-1]
	} else {
		pl = new(pendingLoss)
	}
	*pl = pendingLoss{}
	return pl
}

// Start implements obs.SpanSink: it opens rebuild id's span in a pooled
// record and follows it.
func (a *Analyzer) Start(id int32, group, rep int, failedAt, detectedAt, queuedAt float64) *obs.Span {
	l := a.spans.get()
	l.own.Open(id, group, rep, failedAt, detectedAt, queuedAt)
	l.sp = &l.own
	a.follow(l)
	return l.sp
}

// Finish implements obs.SpanSink: the losses waiting for this rebuild
// are completed. Its record stays until the clock passes its finish.
func (a *Analyzer) Finish(sp *obs.Span) {
	a.advance(sp.DoneAt)
	l := a.spans.byID(sp.Rebuild)
	if l == nil || l.sp != sp || l.pins == 0 {
		return
	}
	keep := a.waiting[:0]
	for _, pl := range a.waiting {
		if pl.cand == l {
			a.completeLoss(pl)
			continue
		}
		keep = append(keep, pl)
	}
	clear(a.waiting[len(keep):])
	a.waiting = keep
}

// track follows a recorded span (Analyze's replay).
func (a *Analyzer) track(sp *obs.Span) {
	l := a.spans.get()
	l.sp = sp
	a.follow(l)
}

// follow starts following rebuild l, which opens now. It may anchor a
// loss whose candidate set is still open, if its block failed first.
func (a *Analyzer) follow(l *liveSpan) {
	sp := l.sp
	a.advance(sp.QueuedAt)
	if lag := a.clock - sp.FailedAt; lag > a.lag {
		panic(fmt.Sprintf("forensics: rebuild %d opened at %g, %g h after its block failed, past the open lag of %g h",
			sp.Rebuild, a.clock, lag, a.ctx.OpenLagHours))
	}
	if len(a.spans.live) >= a.spans.sweepAt {
		a.spans.sweep(a.clock)
	}
	a.spans.add(l)
	for _, pl := range a.open {
		if candidate(sp, pl.e.Time, pl.group) && (pl.cand == nil || sp.FailedAt < pl.cand.sp.FailedAt) {
			pl.take(l)
		}
	}
}

// advance moves the clock to t and settles every loss whose candidate
// set has closed: a rebuild opening from now on failed after it (follow
// panics otherwise). A settled loss whose rebuild has finished, or that
// has none, is completed; the others wait for their rebuild's Finish.
func (a *Analyzer) advance(t float64) {
	a.clock = max(a.clock, t)
	n := 0
	for _, pl := range a.open {
		if a.clock-pl.e.Time <= a.lag {
			break
		}
		n++
		if pl.cand != nil && pl.cand.sp.DoneAt < 0 {
			a.waiting = append(a.waiting, pl)
			continue
		}
		a.completeLoss(pl)
	}
	if n > 0 {
		m := copy(a.open, a.open[n:])
		clear(a.open[m:])
		a.open = a.open[:m]
	}
}
