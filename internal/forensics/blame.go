package forensics

import (
	"math"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Blame is a postmortem's normalized window decomposition. The additive
// components (Detect through Stalled) are the span's phase accounting;
// the stretch components (FailSlow, Contention, Network) are the share
// of transfer time the multiplicative slowdowns added on top of the
// healthy-hardware baseline. Fractions are non-negative and sum to 1;
// Instant is 1 exactly when no window evidence exists (all-at-once
// losses, spans off).
type Blame struct {
	Detect     float64 `json:"detect,omitempty"`
	Queue      float64 `json:"queue,omitempty"`
	Transfer   float64 `json:"transfer,omitempty"`
	Retry      float64 `json:"retry,omitempty"`
	Hedge      float64 `json:"hedge,omitempty"`
	Stalled    float64 `json:"stalled,omitempty"`
	FailSlow   float64 `json:"failslow,omitempty"`
	Contention float64 `json:"contention,omitempty"`
	Network    float64 `json:"network,omitempty"`
	Instant    float64 `json:"instant,omitempty"`
}

// Sum returns the total of all fractions (1 for a well-formed vector).
func (b Blame) Sum() float64 {
	return b.Detect + b.Queue + b.Transfer + b.Retry + b.Hedge +
		b.Stalled + b.FailSlow + b.Contention + b.Network + b.Instant
}

// AddBlame returns the component-wise sum of two blame vectors.
func AddBlame(a, b Blame) Blame {
	a.add(b)
	return a
}

// ScaleBlame returns b with every component multiplied by f.
func ScaleBlame(b Blame, f float64) Blame {
	b.scale(f)
	return b
}

// add accumulates another blame vector component-wise.
func (b *Blame) add(o Blame) {
	b.Detect += o.Detect
	b.Queue += o.Queue
	b.Transfer += o.Transfer
	b.Retry += o.Retry
	b.Hedge += o.Hedge
	b.Stalled += o.Stalled
	b.FailSlow += o.FailSlow
	b.Contention += o.Contention
	b.Network += o.Network
	b.Instant += o.Instant
}

// scale multiplies every component by f.
func (b *Blame) scale(f float64) {
	b.Detect *= f
	b.Queue *= f
	b.Transfer *= f
	b.Retry *= f
	b.Hedge *= f
	b.Stalled *= f
	b.FailSlow *= f
	b.Contention *= f
	b.Network *= f
	b.Instant *= f
}

// blameFromSpan decomposes a rebuild span's window ending (or cut) at t
// into the blame vector, under the fleet state at the postmortem's event
// and the rebuild's latest cross-rack re-sourcing by then.
//
// Additive split: the window W = t − FailedAt is detect wait + queue
// wait + retry backoff + transfer + a residual. Hedge overlap is carved
// out of transfer (the overlap is transfer time spent racing a
// duplicate). The residual is time the span's phase accounting cannot
// see — parked against dark racks, write-fenced, or waiting between
// attempts — and lands in Stalled. When phase accounting overshoots the
// window (an attempt was still accruing at the cut), the components are
// rescaled into it instead, and Stalled is 0.
//
// Multiplicative stretch: the transfer share then splits against the
// stretch factors in effect — the source/target fail-slow factor, the
// foreground contention factor of the last throttle step's share, and
// the spine oversubscription when the rebuild re-sourced across racks
// mid-flight. With combined factor F, a fraction (1 − 1/F) of observed
// transfer time is slowdown, attributed ∝ log of each factor (factors
// compose multiplicatively, so log shares partition the slowdown
// exactly); the remaining 1/F is honest data movement.
//
// The vector is finally normalized by its own sum, so the fractions sum
// to 1 to within a few ulps whatever the float path here did.
func (a *Analyzer) blameFromSpan(sp *obs.Span, t float64, at instant, crossRack stamp) Blame {
	w := t - sp.FailedAt
	if w <= 0 {
		return Blame{Instant: 1}
	}
	detect := clamp(sp.DetectedAt-sp.FailedAt, 0, w)
	queue := math.Max(sp.QueueWait, 0)
	retry := math.Max(sp.RetryWait, 0)
	transfer := math.Max(sp.Transfer, 0)
	hedge := clamp(sp.HedgeOverlap, 0, transfer)
	transfer -= hedge

	b := Blame{Detect: detect, Queue: queue, Retry: retry, Transfer: transfer, Hedge: hedge}
	accounted := detect + queue + retry + transfer + hedge
	if accounted > w && accounted > 0 {
		b.scale(w / accounted)
	} else {
		b.Stalled = w - accounted
	}

	// Stretch factors in effect for this rebuild.
	fFail := 1.0
	if at.slow > 1 {
		fFail = at.slow
	}
	fCont := 1.0
	if share := at.throttle.Y; share > 0 {
		fCont = workload.ContentionFactor(share)
	}
	fNet := 1.0
	if a.ctx.OversubscriptionRatio > 1 {
		if ct := crossRack.t; crossRack.ok && ct >= sp.QueuedAt && ct <= t {
			fNet = a.ctx.OversubscriptionRatio
		}
	}
	if f := fFail * fCont * fNet; f > 1 && b.Transfer > 0 {
		excess := b.Transfer * (1 - 1/f)
		lf, lc, ln := math.Log(fFail), math.Log(fCont), math.Log(fNet)
		lsum := lf + lc + ln
		b.FailSlow = excess * lf / lsum
		b.Contention = excess * lc / lsum
		b.Network = excess * ln / lsum
		b.Transfer -= excess
	}

	s := b.Sum()
	if !(s > 0) {
		return Blame{Instant: 1}
	}
	b.scale(1 / s)
	return b
}

// clamp bounds v into [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
