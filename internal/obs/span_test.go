package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanLifecycle(t *testing.T) {
	l := NewSpanLog()
	sp := l.Start(1, 3, 1, 10, 10.5, 10.5)
	if sp.Outcome != OutcomeUnfinished {
		t.Fatalf("new span outcome = %q", sp.Outcome)
	}
	if sp.StartAt != -1 || sp.DoneAt != -1 {
		t.Fatalf("new span start/done = %v/%v, want -1/-1", sp.StartAt, sp.DoneAt)
	}
	if got := sp.Window(); got != 0 {
		t.Fatalf("unfinished window = %v, want 0", got)
	}
	if got := sp.DetectWait(); got != 0.5 {
		t.Fatalf("detect wait = %v, want 0.5", got)
	}

	sp.StartAt = 11
	sp.QueueWait += 0.5
	sp.Transfer += 2
	sp.Attempts = 1
	sp.DoneAt = 13
	sp.Outcome = OutcomeDone
	if got := sp.Window(); got != 3 {
		t.Fatalf("window = %v, want 3", got)
	}
	if l.Len() != 1 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	l := NewSpanLog()
	a := l.Start(1, 1, 0, 0, 0.25, 0.25)
	a.StartAt, a.DoneAt = 0.5, 1.75
	a.QueueWait, a.Transfer = 0.25, 1.25
	a.Attempts, a.Retries, a.Hedges = 2, 1, 1
	a.HedgeWon = true
	a.Outcome = OutcomeDone
	b := l.Start(2, 2, 1, 5, 5, 5)
	b.Outcome = OutcomeDropped
	b.DoneAt = 6

	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadSpanJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip: %d spans, want 2", len(back))
	}
	if *back[0] != *a || *back[1] != *b {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back[0], back[1])
	}
	// Unfinished third span still serializes with the -1 sentinels.
	l.Start(1, 3, 2, 7, 7.5, 7.5)
	sb.Reset()
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(sb.String(), `"outcome":"unfinished"`) {
		t.Fatalf("unfinished span missing from JSONL:\n%s", sb.String())
	}
}

// TestSpanLogPages: spans handed out from pages across several page
// boundaries are distinct, stay where Start put them while later spans
// are opened, come back from Spans in start order, and serialize to the
// bytes the same spans built one by one do.
func TestSpanLogPages(t *testing.T) {
	const n = 1000
	l := NewSpanLog()
	got := make([]*Span, n)
	seen := make(map[*Span]bool, n)
	for i := range got {
		sp := l.Start(int32(i), i, i%3, float64(i), float64(i)+0.5, float64(i)+1)
		if seen[sp] {
			t.Fatalf("Start %d returned a pointer already handed out", i)
		}
		seen[sp] = true
		got[i] = sp
		if i > 0 {
			// Mutate the previous span through its pointer after a later
			// Start; the write must land in the log.
			got[i-1].Attempts = i - 1
			got[i-1].Outcome = OutcomeDone
		}
	}
	spans := l.Spans()
	if len(spans) != n || l.Len() != n {
		t.Fatalf("log holds %d spans (Len %d), want %d", len(spans), l.Len(), n)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i, sp := range spans {
		if sp != got[i] || sp.Rebuild != int32(i) {
			t.Fatalf("Spans()[%d] is rebuild %d, not the span Start %d returned", i, sp.Rebuild, i)
		}
		if i < n-1 && (sp.Attempts != i || sp.Outcome != OutcomeDone) {
			t.Fatalf("span %d lost a write made through its pointer: %+v", i, *sp)
		}
		ref := &Span{
			Rebuild: int32(i), Group: i, Rep: i % 3,
			FailedAt: float64(i), DetectedAt: float64(i) + 0.5, QueuedAt: float64(i) + 1,
			StartAt: -1, DoneAt: -1, Attempts: sp.Attempts, Outcome: sp.Outcome,
		}
		if err := enc.Encode(ref); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := l.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("paged spans serialize differently from spans built one by one")
	}
}

// TestSpanLogStartAllocs: a page's worth of spans costs the page and
// the pointer slice's growth, not one allocation per span.
func TestSpanLogStartAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		l := NewSpanLog()
		for i := 0; i < spanPage; i++ {
			l.Start(int32(i), i, 0, 0, 0, 0)
		}
	})
	if allocs > 3 {
		t.Fatalf("%d Starts allocated %.0f times, want ≤ 3", spanPage, allocs)
	}
}

func TestReadSpanJSONLBad(t *testing.T) {
	if _, err := ReadSpanJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatalf("bad input did not error")
	}
}

func TestSampleJSONLRoundTrip(t *testing.T) {
	s := NewSeries()
	s.Add(Sample{T: 1, ActiveRebuilds: 2, BusyDisks: 4, RecoveryMBps: 80, DegradedGroups: 2, Missing1: 2, AliveDisks: 100, SparePoolFree: -1})
	s.Add(Sample{T: 2, LostGroups: 1, Missing2: 1, SlowDisks: 3, EvictedSlow: 1, SparePoolFree: 5, SpareQueue: 2})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	var sb strings.Builder
	if err := s.WriteJSONL(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadSampleJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip: %d samples, want 2", len(back))
	}
	if back[0] != s.Samples()[0] || back[1] != s.Samples()[1] {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back[0], back[1])
	}
}

func TestRunObserverValidate(t *testing.T) {
	var nilObs *RunObserver
	if err := nilObs.Validate(); err != nil {
		t.Fatalf("nil observer: %v", err)
	}
	if err := (&RunObserver{}).Validate(); err != nil {
		t.Fatalf("zero observer: %v", err)
	}
	if err := (&RunObserver{Series: NewSeries()}).Validate(); err == nil {
		t.Fatalf("series without cadence did not error")
	}
	if err := (&RunObserver{Series: NewSeries(), SampleEveryHours: 24}).Validate(); err != nil {
		t.Fatalf("valid sampler config: %v", err)
	}
}
