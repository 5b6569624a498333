package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Span outcomes.
const (
	// OutcomeDone marks a rebuild that landed its block.
	OutcomeDone = "done"
	// OutcomeDropped marks a rebuild abandoned (group lost, sources
	// exhausted, or the re-sourcing cap reached).
	OutcomeDropped = "dropped"
	// OutcomeUnfinished marks a rebuild still in flight when the
	// simulation horizon arrived.
	OutcomeUnfinished = "unfinished"
)

// Span tracks one block rebuild through its whole lifecycle: the block
// is lost at FailedAt (disk death or discovered latent error), the loss
// is noticed at DetectedAt, the first transfer attempt is submitted at
// QueuedAt, actually starts at StartAt, and the rebuild ends at DoneAt.
// The phase accumulators break the window of vulnerability down by where
// the time went; across retries, redirections, and re-sourcings each
// attempt's queue wait and transfer time adds into the same buckets.
// All times are simulated hours. Rebuild is the run-unique rebuild id
// every trace event about this rebuild carries (trace.Event.Rebuild).
type Span struct {
	Rebuild int32 `json:"rebuild"`
	Group   int   `json:"group"`
	Rep     int   `json:"rep"`

	FailedAt   float64 `json:"failed_at"`
	DetectedAt float64 `json:"detected_at"`
	QueuedAt   float64 `json:"queued_at"`
	// StartAt is the first transfer start; -1 if no attempt ever started.
	StartAt float64 `json:"start_at"`
	// DoneAt is the completion/abandonment time; -1 while unfinished.
	DoneAt float64 `json:"done_at"`

	// QueueWait accumulates hours spent waiting in disk FIFO queues (and
	// for an exhausted spare pool) across all attempts.
	QueueWait float64 `json:"queue_wait"`
	// Transfer accumulates hours spent actually transferring, including
	// partial transfers lost to cancellations.
	Transfer float64 `json:"transfer"`
	// RetryWait accumulates backoff hours after transient read faults.
	RetryWait float64 `json:"retry_wait"`
	// HedgeOverlap accumulates hours during which a duplicate transfer
	// raced the primary.
	HedgeOverlap float64 `json:"hedge_overlap"`

	Attempts     int  `json:"attempts"`
	Retries      int  `json:"retries,omitempty"`
	Resourcings  int  `json:"resourcings,omitempty"`
	Redirections int  `json:"redirections,omitempty"`
	Hedges       int  `json:"hedges,omitempty"`
	HedgeWon     bool `json:"hedge_won,omitempty"`
	TimedOut     bool `json:"timed_out,omitempty"`

	// Outcome is "done", "dropped", or "unfinished".
	Outcome string `json:"outcome"`
}

// Window returns the span's window of vulnerability (failure to end);
// 0 for unfinished spans.
func (s *Span) Window() float64 {
	if s.DoneAt < 0 {
		return 0
	}
	return s.DoneAt - s.FailedAt
}

// Open sets s to the span of block rebuild id as it opens: failed,
// detected and queued at the given times, with no transfer started and
// no outcome yet.
func (s *Span) Open(id int32, group, rep int, failedAt, detectedAt, queuedAt float64) {
	*s = Span{
		Rebuild: id, Group: group, Rep: rep,
		FailedAt: failedAt, DetectedAt: detectedAt, QueuedAt: queuedAt,
		StartAt: -1, DoneAt: -1,
		Outcome: OutcomeUnfinished,
	}
}

// DetectWait returns the detection-latency phase of the span.
func (s *Span) DetectWait() float64 { return s.DetectedAt - s.FailedAt }

// SpanSink receives one run's rebuild-lifecycle spans from the
// recovery engine. Start opens the span of rebuild id and returns it for
// in-place phase accounting; Finish is called once the span's terminal
// outcome is latched, after which the engine never touches it again.
// SpanLog keeps every span; the forensic analyzer keeps only the open
// ones and recycles the rest.
type SpanSink interface {
	Start(id int32, group, rep int, failedAt, detectedAt, queuedAt float64) *Span
	Finish(sp *Span)
}

// spanPage is how many spans one SpanLog page holds.
const spanPage = 256

// SpanLog collects rebuild-lifecycle spans in start order. Spans live in
// fixed-size pages that are never reallocated, so a pointer Start
// returns stays valid for the log's lifetime. Not safe for concurrent
// use — one run, one SpanLog.
type SpanLog struct {
	spans []*Span
	// page is the page being filled.
	page []Span
}

// NewSpanLog returns an empty span log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// Start opens a span for block rebuild id at queue time and returns it
// for in-place phase accounting.
func (l *SpanLog) Start(id int32, group, rep int, failedAt, detectedAt, queuedAt float64) *Span {
	if len(l.page) == cap(l.page) {
		l.page = make([]Span, 0, spanPage)
		if cap(l.spans)-len(l.spans) < spanPage {
			l.spans = slices.Grow(l.spans, max(len(l.spans), spanPage))
		}
	}
	l.page = l.page[:len(l.page)+1]
	sp := &l.page[len(l.page)-1]
	sp.Open(id, group, rep, failedAt, detectedAt, queuedAt)
	l.spans = append(l.spans, sp)
	return sp
}

// Finish implements SpanSink: the log keeps every span, finished or not.
func (l *SpanLog) Finish(*Span) {}

// Len returns the number of spans (finished or not).
func (l *SpanLog) Len() int { return len(l.spans) }

// Spans returns the recorded spans in start order (caller must not
// mutate the slice).
func (l *SpanLog) Spans() []*Span { return l.spans }

// WriteJSONL writes one JSON object per span.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpanJSONL parses a stream written by WriteJSONL.
func ReadSpanJSONL(rd io.Reader) ([]*Span, error) {
	dec := json.NewDecoder(rd)
	var out []*Span
	for dec.More() {
		sp := &Span{}
		if err := dec.Decode(sp); err != nil {
			return nil, fmt.Errorf("obs: span: %w", err)
		}
		out = append(out, sp)
	}
	return out, nil
}
