package recovery

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the engines' span layer: rebuild-lifecycle bookkeeping
// feeding the obs flight recorder. Everything here is strictly
// observational — spans and histograms never influence a scheduling
// decision — and everything is dormant unless the Env.Obs field
// supplies a span sink (per-rebuild span accounting) or a registry (the
// per-rebuild histograms). Event counters are not recorded here: they
// live in the run's obs.Tally and reach a registry at the horizon.
//
// Accounting model: a rebuild is one span; each (re)submission of its
// primary task is one attempt. When an attempt ends — completion,
// cancellation for redirection/re-sourcing, abandonment, or a hedge win
// — its queue wait (transfer start − submission) and transfer time
// (end − transfer start) fold into the span's phase accumulators. The
// spanDone latch makes attempt-end accounting idempotent: terminal
// paths that cascade (complete → re-source → abandon) account the
// attempt exactly once, and submitTracked re-arms the latch for the
// next attempt.

// histograms are the per-rebuild registry histograms: they bin values
// (phase durations, read latencies) that no tally keeps, so they record
// live rather than at the horizon. All nil unless a registry is attached.
type histograms struct {
	window, queueWait, transfer, retryWait, hedgeOverlap, detectWait, degradedMs *obs.Histogram
}

// initObs resolves the per-rebuild histograms on o.Registry and installs
// the span sink o.Spans (either may be nil). With spans enabled the
// scheduler's OnStart hook is armed, which also emits the transfer-start
// trace event — new event kinds appear in the transcript only when spans
// are on, so existing transcripts stay byte-identical.
func (b *base) initObs(o *obs.RunObserver) {
	if r := o.Registry; r != nil {
		b.hists = histograms{
			window:       r.Histogram(obs.MetricWindowHours, obs.PhaseBounds),
			queueWait:    r.Histogram(obs.MetricQueueWaitHours, obs.PhaseBounds),
			transfer:     r.Histogram(obs.MetricTransferHours, obs.PhaseBounds),
			retryWait:    r.Histogram(obs.MetricRetryWaitHours, obs.PhaseBounds),
			hedgeOverlap: r.Histogram(obs.MetricHedgeOverlapHours, obs.PhaseBounds),
			detectWait:   r.Histogram(obs.MetricDetectWaitHours, obs.PhaseBounds),
			degradedMs:   r.Histogram(obs.MetricDegradedLatency, obs.LatencyBounds),
		}
	}
	b.spans = o.Spans
	if b.spans != nil {
		b.sched.OnStart = func(now sim.Time, t *Task) {
			r := t.rb
			if r.span != nil && r.span.StartAt < 0 {
				r.span.StartAt = float64(now)
			}
			b.emitRebuild(now, trace.KindTransferStart, r.id, t.Group, t.Rep, t.Target)
		}
	}
}

// InFlight implements Engine: the number of tracked block rebuilds
// (transferring, queued, or backing off). Read-only; used by the state
// sampler.
func (b *base) InFlight() int { return b.inFlight }

// spanEndAttempt folds the rebuild's current attempt into its span's
// phase accumulators. Call it at the instant the attempt ends, BEFORE
// the task is cancelled or replaced (the task's state decides where the
// time went). Idempotent per attempt via the spanDone latch.
func (b *base) spanEndAttempt(r *rebuild, now sim.Time) {
	sp := r.span
	if sp == nil || r.spanDone {
		return
	}
	r.spanDone = true
	t := &r.task
	switch {
	case t.state == taskIdle:
		// Re-pointed for a backed-off retry (or a park) but never
		// submitted; the wait is retry backoff, accounted by the retry
		// bookkeeping in cancelTimers.
	case t.Running() || t.Done():
		sp.QueueWait += float64(t.StartedAt - t.SubmittedAt)
		sp.Transfer += float64(now - t.StartedAt)
	default: // still pending in a disk FIFO queue
		sp.QueueWait += float64(now - t.SubmittedAt)
	}
}

// spanFinish latches the span's terminal outcome at now, feeds the
// per-run phase histograms (when a registry is attached) and hands the
// span back to its sink. Safe on a nil span.
func (b *base) spanFinish(sp *obs.Span, now sim.Time, outcome string) {
	if sp == nil {
		return
	}
	sp.DoneAt = float64(now)
	sp.Outcome = outcome
	if h := &b.hists; h.window != nil {
		h.queueWait.Observe(sp.QueueWait)
		h.transfer.Observe(sp.Transfer)
		h.retryWait.Observe(sp.RetryWait)
		h.hedgeOverlap.Observe(sp.HedgeOverlap)
		h.detectWait.Observe(sp.DetectWait())
	}
	b.spans.Finish(sp)
}
