// Package forensics is the simulator's root-cause layer: a
// deterministic, read-only pass over one run's trace and span streams
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
// forensics-off for all simulation outputs.
package forensics

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// reads is the set of kinds Analyze reads, indexed by Kind: exactly the
// kinds its switch has a case for (TestReadsMatchesAnalyze checks the
// two agree). Every other kind is skipped before the switch, so a stream
// with only these kinds analyses exactly like the full one.
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

// Reads reports whether Analyze reads events of kind k. A tap that
// feeds only Analyze may drop every event for which Reads is false.
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

type lseHit struct {
	t          float64
	group, rep int
}

type parkSpan struct{ from, to float64 }

// parkLog is one rebuild's first parked intervals, at most four; later
// ones are not shown in its chain.
type parkLog struct {
	n     int
	spans [4]parkSpan
}

// analyzer is the single-forward-pass state machine over the trace.
// All lookups are by concrete key — no map iteration — so the pass is
// deterministic without sorting. Rebuild-scoped state is keyed by the
// rebuild id events and spans share, so one rebuild's history never
// leaks into a later rebuild of the same block.
type analyzer struct {
	ctx   Context
	spans []*obs.Span
	// byID indexes the spans by rebuild id.
	byID map[int32]*obs.Span

	diskFailAt      map[int32]float64
	darkSince       map[int32]float64
	lastLSEDetect   map[int32]lseHit
	lastScrubRepair map[int32]lseHit
	slowFactor      map[int32]float64
	crossRackAt     map[int32]float64
	timedOutAt      map[int32]float64
	hedgeAt         map[int32]float64
	parkFrom        map[int32]float64
	parks           map[int32]parkLog

	falseDead struct {
		t, since float64
		rack     int32
		ok       bool
	}
	// The latest throttle step, correlated burst and spare-pool wait;
	// each has a zero Kind until one occurs.
	throttle, burst, spare trace.Event
	// ch holds the report's chain links and their detail text.
	ch chains
}

// Analyze runs the forensic pass over one run's event stream and
// (optionally) its rebuild-lifecycle spans, producing exactly one
// postmortem per data-loss and per dropped event, in trace order. A nil
// span slice degrades gracefully: windows without span evidence come
// back Instant and drop classification falls to ClassUnattributed.
// Events must be time-sorted (the recorder's natural order); events of
// kinds outside Reads are ignored.
func Analyze(events []trace.Event, spans []*obs.Span, ctx Context) *Report {
	a := &analyzer{
		ctx:             ctx,
		spans:           spans,
		byID:            make(map[int32]*obs.Span, len(spans)),
		diskFailAt:      map[int32]float64{},
		darkSince:       map[int32]float64{},
		lastLSEDetect:   map[int32]lseHit{},
		lastScrubRepair: map[int32]lseHit{},
		slowFactor:      map[int32]float64{},
		crossRackAt:     map[int32]float64{},
		timedOutAt:      map[int32]float64{},
		hedgeAt:         map[int32]float64{},
		parkFrom:        map[int32]float64{},
		parks:           map[int32]parkLog{},
	}
	for _, sp := range spans {
		a.byID[sp.Rebuild] = sp
	}
	rep := &Report{}
	for _, e := range events {
		if !Reads(e.Kind) {
			continue
		}
		switch e.Kind {
		case trace.KindDiskFail:
			a.diskFailAt[e.Disk] = e.Time
		case trace.KindRackUnreachable:
			a.darkSince[e.Rack] = e.Time
		case trace.KindPartitionHeal:
			delete(a.darkSince, e.Rack)
		case trace.KindFalseDead:
			a.falseDead.t = e.Time
			a.falseDead.rack = e.Rack
			a.falseDead.since = a.darkSince[e.Rack]
			a.falseDead.ok = true
			delete(a.darkSince, e.Rack)
		case trace.KindFailSlowOnset:
			a.slowFactor[e.Disk] = max(e.X, 1)
		case trace.KindFailSlowRecover:
			delete(a.slowFactor, e.Disk)
		case trace.KindThrottle:
			a.throttle = e
		case trace.KindBurst:
			a.burst = e
		case trace.KindSpareQueued:
			a.spare = e
		case trace.KindLSEDetect:
			a.lastLSEDetect[e.Disk] = lseHit{e.Time, int(e.Group), int(e.Rep)}
		case trace.KindScrubRepair:
			a.lastScrubRepair[e.Disk] = lseHit{e.Time, int(e.Group), int(e.Rep)}
		case trace.KindResourceCrossRack:
			a.crossRackAt[e.Rebuild] = e.Time
		case trace.KindRebuildTimeout:
			a.timedOutAt[e.Rebuild] = e.Time
		case trace.KindHedge:
			a.hedgeAt[e.Rebuild] = e.Time
		case trace.KindRebuildParked:
			a.parkFrom[e.Rebuild] = e.Time
		case trace.KindRebuildResumed:
			id := e.Rebuild
			if from, ok := a.parkFrom[id]; ok {
				if pl := a.parks[id]; pl.n < len(pl.spans) {
					pl.spans[pl.n] = parkSpan{from, e.Time}
					pl.n++
					a.parks[id] = pl
				}
				delete(a.parkFrom, id)
			}
		case trace.KindDataLoss:
			p := a.lossPostmortem(e)
			p.Seq = len(rep.Posts)
			rep.Posts = append(rep.Posts, p)
			rep.Losses++
		case trace.KindDropped:
			p := a.dropPostmortem(e)
			p.Seq = len(rep.Posts)
			rep.Posts = append(rep.Posts, p)
			rep.Drops++
		}
	}
	a.ch.seal(rep.Posts)
	return rep
}

// openSpanOn returns the earliest-failed span open at time t, optionally
// restricted to one group (group < 0 matches any). A span is open at t
// when its block was already lost and its rebuild had not yet resolved.
func (a *analyzer) openSpanOn(t float64, group int) *obs.Span {
	var best *obs.Span
	for _, sp := range a.spans {
		if group >= 0 && sp.Group != group {
			continue
		}
		if sp.FailedAt > t {
			continue
		}
		if sp.DoneAt >= 0 && sp.DoneAt < t {
			continue
		}
		if best == nil || sp.FailedAt < best.FailedAt {
			best = sp
		}
	}
	return best
}
