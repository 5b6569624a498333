// Package forensics is the simulator's root-cause layer: a
// deterministic, read-only fold over one run's trace and span streams
// that explains every loss. For each traced `data-loss` and `dropped`
// event it produces a Postmortem — the causal chain that led there, a
// deterministic taxonomy class, and a blame vector decomposing the
// lost group's window of vulnerability into where the time went
// (detect/queue/transfer/retry/hedge/stalled) and what stretched it
// (fail-slow sources, foreground contention, the oversubscribed
// spine). Fleet-level Aggregates fold postmortems across Monte Carlo
// runs in run-index order, so blame attribution is byte-identical
// across worker counts, like every other campaign output.
//
// The layer consumes only what the flight recorder already emits; it
// never touches the simulation, so forensics-on is byte-identical to
// forensics-off for all simulation outputs. One Analyzer does the work,
// fed online by a running simulation (Monte Carlo campaigns) or by
// Analyze replaying recorded streams (farmtrace, the pinned storms).
package forensics

import (
	"math"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// reads is the set of kinds the analyzer reads, indexed by Kind: exactly
// the kinds Observe's switch has a case for (TestReadsMatchesAnalyze
// checks the two agree). Every other kind is skipped before the switch,
// so a stream with only these kinds analyses exactly like the full one.
var reads = [...]bool{
	trace.KindDiskFail:          true,
	trace.KindRackUnreachable:   true,
	trace.KindPartitionHeal:     true,
	trace.KindFalseDead:         true,
	trace.KindFailSlowOnset:     true,
	trace.KindFailSlowRecover:   true,
	trace.KindThrottle:          true,
	trace.KindBurst:             true,
	trace.KindSpareQueued:       true,
	trace.KindLSEDetect:         true,
	trace.KindScrubRepair:       true,
	trace.KindResourceCrossRack: true,
	trace.KindRebuildTimeout:    true,
	trace.KindHedge:             true,
	trace.KindRebuildParked:     true,
	trace.KindRebuildResumed:    true,
	trace.KindDataLoss:          true,
	trace.KindDropped:           true,
}

// Reads reports whether the analyzer reads events of kind k. A tap that
// feeds only the analyzer may drop every event for which Reads is false.
func Reads(k trace.Kind) bool { return int(k) < len(reads) && reads[k] }

// Context carries the configuration facts blame attribution needs —
// the knobs that shaped the run but are invisible in the event stream.
type Context struct {
	// OversubscriptionRatio is the fabric's spine oversubscription
	// (cfg.Topology.OversubscriptionRatio); ≤ 1 disables the network
	// stretch factor.
	OversubscriptionRatio float64
	// MaxResourcings is the per-rebuild source-switch cap
	// (cfg.Faults.MaxResourcings); 0 means the fault model's default,
	// faults.DefaultMaxResourcings.
	MaxResourcings int
	// OpenLagHours bounds how long after its block failed a rebuild can
	// open: the detection latency plus the false-dead patience, which a
	// write-off backdates its failures by (cfg.DetectionLatencyHours +
	// cfg.Topology.FalseDeadHours). A loss's window can be anchored on a
	// rebuild that opens after the loss, so the online analyzer keeps a
	// loss's candidate set open for this long; a rebuild that opens
	// later than this after its block failed panics. Analyze widens it
	// to what its spans show.
	OpenLagHours float64
}

// burstAssocHours is how long after a correlated burst a loss is still
// blamed on it.
const burstAssocHours = 24

func (c Context) maxResourcings() int {
	if c.MaxResourcings > 0 {
		return c.MaxResourcings
	}
	return faults.DefaultMaxResourcings
}

// ChainLink is one hop of a postmortem's causal chain, in time order.
type ChainLink struct {
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// Postmortem explains one traced data-loss or dropped-rebuild event.
type Postmortem struct {
	// Seq numbers postmortems within a run, in trace order.
	Seq int `json:"seq"`
	// T is the time of the loss event (simulated hours).
	T float64 `json:"t"`
	// Kind is the losing event's trace kind: data-loss or dropped.
	Kind trace.Kind `json:"kind"`
	// Class is the deterministic taxonomy verdict (see taxonomy.go).
	Class string `json:"class"`
	// Disk is the event's disk: the final trigger for a loss, the
	// rebuild target for a drop.
	Disk int `json:"disk"`
	// Group/Rep identify the rebuild for drops (and for losses when the
	// chain pins one); -1 when unknown.
	Group int `json:"group"`
	Rep   int `json:"rep"`
	// Groups is how many groups crossed into loss at this instant
	// (data-loss only; 1 otherwise).
	Groups int `json:"groups,omitempty"`
	// WindowHours is the reconstructed window of vulnerability the
	// blame vector decomposes; 0 when the loss was instantaneous (or no
	// span evidence exists — then Blame.Instant is 1).
	WindowHours float64 `json:"window_hours"`
	// Blame is the normalized blame vector; fractions sum to 1.
	Blame Blame `json:"blame"`
	// Chain is the causal chain, oldest first, capped at maxChain.
	Chain []ChainLink `json:"chain,omitempty"`
}

// Report is one run's forensic output: a postmortem per loss event, in
// trace order.
type Report struct {
	Posts  []Postmortem `json:"posts"`
	Losses int          `json:"losses"`
	Drops  int          `json:"drops"`
}

// maxChain caps a postmortem's causal chain; the classification anchors
// always fit, deep retry ladders are summarized instead of enumerated.
const maxChain = 16

// stamp is the time of a fact the trace stated; ok is false until it
// has.
type stamp struct {
	t  float64
	ok bool
}

// lseHit is a disk's latest latent-error discovery.
type lseHit struct {
	t          float64
	group, rep int32
	ok         bool
}

type parkSpan struct{ from, to float64 }

// parkLog is one rebuild's first parked intervals, at most four; later
// ones are not shown in its chain.
type parkLog struct {
	n     int
	spans [4]parkSpan
}

// instant is the fleet state a postmortem reads at its event: the
// throttle step in effect and the fail-slow factor of the event's disk.
type instant struct {
	throttle trace.Event
	slow     float64
}

// Analyzer is the forensic pass: one forward fold over a run's trace
// events and rebuild spans that writes a postmortem for every data-loss
// and dropped event. It is fed online — Observe as the run's trace hook
// and the analyzer itself as the run's span sink (obs.SpanSink), so a
// forensic run records neither stream — or by Analyze, which replays
// recorded streams through it.
//
// Its memory follows the run's open rebuilds, not its events. Disk and
// rack state are dense tables; a rebuild's state (its span and what its
// events said) lives in a pooled record that is recycled once the span
// has finished and no pending postmortem reads it. Every lookup is by
// concrete key or in open order, so the fold is deterministic. An
// Analyzer is reused run after run (Reset) and is not safe for
// concurrent use.
type Analyzer struct {
	ctx Context
	// lag is ctx.OpenLagHours plus a rounding slack.
	lag float64
	// clock is the latest time the analyzer has seen.
	clock float64
	rep   *Report

	// Disk and rack state, one dense table per fact indexed by disk or
	// rack id, each grown when the trace first states its fact about a
	// disk or rack beyond it: each disk's latest disk-fail, lse-detect
	// and scrub-repair, its fail-slow factor while degraded (else 0), and
	// each rack's outage start while it is unreachable (else 0).
	failed     []stamp
	lse, scrub []lseHit
	slow       []float64
	dark       []float64
	// falseDead is the latest false-dead write-off and the outage it
	// ended.
	falseDead struct {
		t, since float64
		rack     int32
		ok       bool
	}
	// The latest throttle step, correlated burst and spare-pool wait;
	// each has a zero Kind until one occurs.
	throttle, burst, spare trace.Event

	spans spanTable
	// open holds the loss postmortems whose candidate set is still open,
	// oldest first; waiting those whose candidate is settled but whose
	// span has not finished.
	open, waiting []*pendingLoss
	freeLoss      []*pendingLoss
	// ch holds the report's chain links and their detail text.
	ch chains
}

// NewAnalyzer returns an analyzer ready for a run with a zero Context;
// call Reset to set one.
func NewAnalyzer() *Analyzer {
	a := &Analyzer{}
	a.Reset(Context{})
	return a
}

// lagSlack absorbs float rounding in the open-lag bound: a detection
// scheduled at failure + latency can land an ulp past it.
const lagSlack = 1e-6

// Reset readies the analyzer for a new run under ctx. The report of the
// previous run stays valid; everything else is reused.
func (a *Analyzer) Reset(ctx Context) {
	linksHint := len(a.ch.links)
	postsHint := 0
	if a.rep != nil {
		postsHint = len(a.rep.Posts)
	}
	a.ctx, a.lag, a.clock = ctx, ctx.OpenLagHours+lagSlack, 0
	a.rep = &Report{Posts: make([]Postmortem, 0, postsHint)}
	a.failed, a.lse, a.scrub = a.failed[:0], a.lse[:0], a.scrub[:0]
	a.slow, a.dark = a.slow[:0], a.dark[:0]
	a.falseDead.ok = false
	a.throttle, a.burst, a.spare = trace.Event{}, trace.Event{}, trace.Event{}
	a.spans.reset()
	a.freeLoss = append(append(a.freeLoss, a.open...), a.waiting...)
	clear(a.open)
	clear(a.waiting)
	a.open, a.waiting = a.open[:0], a.waiting[:0]
	a.ch.reset(linksHint)
}

// put sets s[i] to v, growing s to hold index i: new entries are zero,
// and the capacity at least doubles, so a table that follows a growing
// fleet costs a few allocations, not one per disk. A negative i names
// no disk or rack and is dropped, as at reads it back as zero.
func put[T any](s []T, i int32, v T) []T {
	if i < 0 {
		return s
	}
	s = grow(s, int(i))
	s[i] = v
	return s
}

// grow returns s extended with zero values to hold index i.
func grow[T any](s []T, i int) []T {
	n := len(s)
	if i < n {
		return s
	}
	if i >= cap(s) {
		t := make([]T, n, max(2*cap(s), i+1))
		copy(t, s)
		s = t
	}
	s = s[:i+1]
	clear(s[n:])
	return s
}

// at returns s[i], the zero value when the table does not reach i (or
// i < 0: no disk).
func at[T any](s []T, i int32) T {
	if i < 0 || int(i) >= len(s) {
		var zero T
		return zero
	}
	return s[i]
}

// instantAt is the fleet state a postmortem of an event on disk reads.
func (a *Analyzer) instantAt(disk int32) instant {
	return instant{throttle: a.throttle, slow: at(a.slow, disk)}
}

// Observe folds one trace event; it is the run's trace hook. Events
// must arrive in time order, as the simulator emits them; kinds outside
// Reads are ignored.
func (a *Analyzer) Observe(e trace.Event) {
	if !Reads(e.Kind) {
		return
	}
	a.advance(e.Time)
	switch e.Kind {
	case trace.KindDiskFail:
		a.failed = put(a.failed, e.Disk, stamp{e.Time, true})
	case trace.KindRackUnreachable:
		a.dark = put(a.dark, e.Rack, e.Time)
	case trace.KindPartitionHeal:
		a.dark = put(a.dark, e.Rack, 0)
	case trace.KindFalseDead:
		a.falseDead.t = e.Time
		a.falseDead.rack = e.Rack
		a.falseDead.since = at(a.dark, e.Rack)
		a.falseDead.ok = true
		a.dark = put(a.dark, e.Rack, 0)
	case trace.KindFailSlowOnset:
		a.slow = put(a.slow, e.Disk, max(e.X, 1))
	case trace.KindFailSlowRecover:
		a.slow = put(a.slow, e.Disk, 0)
	case trace.KindThrottle:
		a.throttle = e
	case trace.KindBurst:
		a.burst = e
	case trace.KindSpareQueued:
		a.spare = e
	case trace.KindLSEDetect:
		a.lse = put(a.lse, e.Disk, lseHit{e.Time, e.Group, e.Rep, true})
	case trace.KindScrubRepair:
		a.scrub = put(a.scrub, e.Disk, lseHit{e.Time, e.Group, e.Rep, true})
	case trace.KindResourceCrossRack:
		if l := a.spans.byID(e.Rebuild); l != nil {
			l.hist.crossRack = stamp{e.Time, true}
		}
	case trace.KindRebuildTimeout:
		if l := a.spans.byID(e.Rebuild); l != nil {
			l.hist.timedOut = stamp{e.Time, true}
		}
	case trace.KindHedge:
		if l := a.spans.byID(e.Rebuild); l != nil {
			l.hist.hedge = stamp{e.Time, true}
		}
	case trace.KindRebuildParked:
		if l := a.spans.byID(e.Rebuild); l != nil {
			l.hist.parkFrom = stamp{e.Time, true}
		}
	case trace.KindRebuildResumed:
		if l := a.spans.byID(e.Rebuild); l != nil && l.hist.parkFrom.ok {
			if pl := &l.hist.parks; pl.n < len(pl.spans) {
				pl.spans[pl.n] = parkSpan{l.hist.parkFrom.t, e.Time}
				pl.n++
			}
			l.hist.parkFrom = stamp{}
		}
	case trace.KindDataLoss:
		a.rep.Losses++
		a.lossPostmortem(e, a.reserve())
	case trace.KindDropped:
		a.rep.Drops++
		a.dropPostmortem(e, a.reserve())
	}
}

// reserve appends the next postmortem's slot to the report and returns
// its index; the postmortem is written there when it is complete.
func (a *Analyzer) reserve() int {
	seq := len(a.rep.Posts)
	a.rep.Posts = append(a.rep.Posts, Postmortem{Seq: seq})
	return seq
}

// Report completes every pending postmortem against the spans as they
// stand — the run's horizon — and returns the run's report. The
// analyzer must be Reset before it is fed again.
func (a *Analyzer) Report() *Report {
	for _, pl := range a.open {
		a.completeLoss(pl)
	}
	for _, pl := range a.waiting {
		a.completeLoss(pl)
	}
	clear(a.open)
	clear(a.waiting)
	a.open, a.waiting = a.open[:0], a.waiting[:0]
	a.ch.seal(a.rep.Posts)
	return a.rep
}

// Analyze runs the forensic pass over one run's recorded event stream
// and (optionally) its rebuild-lifecycle spans, producing exactly one
// postmortem per data-loss and per dropped event, in trace order. It
// replays both streams through an Analyzer: each span opens at its
// QueuedAt, before the events of that instant. Spans must be in start
// order, as SpanLog.Spans returns them. A nil span slice degrades
// gracefully: windows without span evidence come back Instant and drop
// classification falls to ClassUnattributed. Events must be
// time-sorted (the recorder's natural order); events of kinds outside
// Reads are ignored.
func Analyze(events []trace.Event, spans []*obs.Span, ctx Context) *Report {
	// A recorded run shows every span's open lag; widen the bound to
	// cover them, so a Context that leaves OpenLagHours unset still
	// analyses the stream exactly.
	opened := math.Inf(-1)
	for _, sp := range spans {
		opened = max(opened, sp.QueuedAt)
		ctx.OpenLagHours = max(ctx.OpenLagHours, opened-sp.FailedAt)
	}
	a := &Analyzer{}
	a.Reset(ctx)
	next := 0
	for _, e := range events {
		for next < len(spans) && spans[next].QueuedAt <= e.Time {
			a.track(spans[next])
			next++
		}
		a.Observe(e)
	}
	for _, sp := range spans[next:] {
		a.track(sp)
	}
	return a.Report()
}
