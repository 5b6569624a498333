package forensics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// feed is a hand-built run for the online analyzer: each step is a trace
// event, a span opening or a span finishing, in stream order. It also
// records both streams, so the same run can be replayed through Analyze.
type feed struct {
	a      *Analyzer
	events []trace.Event
	spans  []*obs.Span
}

func newFeed(ctx Context) *feed {
	a := NewAnalyzer()
	a.Reset(ctx)
	return &feed{a: a}
}

func (f *feed) event(e trace.Event) {
	f.a.Observe(e)
	f.events = append(f.events, e)
}

func (f *feed) start(id int32, group int, failedAt, queuedAt float64) *obs.Span {
	sp := f.a.Start(id, group, 0, failedAt, queuedAt, queuedAt)
	f.spans = append(f.spans, sp)
	return sp
}

// finish latches sp's outcome at t and hands it back, as the engine's
// spanFinish does.
func (f *feed) finish(sp *obs.Span, t float64, outcome string) {
	sp.DoneAt, sp.Outcome = t, outcome
	f.a.Finish(sp)
}

// report returns the online report, and checks that replaying the
// recorded streams through Analyze gives the same one.
func (f *feed) report(t *testing.T) *Report {
	t.Helper()
	got := f.a.Report()
	if want := Analyze(f.events, f.spans, f.a.ctx); !reflect.DeepEqual(got, want) {
		t.Fatalf("online report differs from the replay:\n%+v\nvs\n%+v", got.Posts, want.Posts)
	}
	return got
}

func loss(t float64, disk int32) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindDataLoss, Disk: disk, N: 1}
}

// TestLateOpeningSpanWinsWindow: a write-off backdates its failures, so
// a rebuild can open after a loss although its block failed before the
// rebuild that was open at the loss. It still anchors the window. A
// rebuild that opens further past its failure than the open lag panics:
// a loss's candidate set may already have closed without it.
func TestLateOpeningSpanWinsWindow(t *testing.T) {
	f := newFeed(Context{OpenLagHours: 24})
	f.start(1, 5, 3, 3)
	f.event(loss(4, 9))
	f.start(2, 7, 1, 5) // failed at 1, opened at 5: after the loss
	f.event(trace.Event{Time: 40, Kind: trace.KindThrottle, X: 16, Y: 0.1})
	rep := f.report(t)
	p := rep.Posts[0]
	if p.Group != 7 || p.WindowHours != 3 {
		t.Fatalf("window anchored on group %d, %g h; want group 7 (failed at 1), 3 h", p.Group, p.WindowHours)
	}
	if len(p.Chain) == 0 || p.Chain[0].Kind != "block-failed" || p.Chain[0].T != 1 {
		t.Fatalf("chain = %+v, want block-failed at 1 first", p.Chain)
	}
	sumsToOne(t, p)

	defer func() {
		if recover() == nil {
			t.Fatal("a rebuild opening 30 h after its block failed, past a 24 h lag, did not panic")
		}
	}()
	late := newFeed(Context{OpenLagHours: 24})
	late.a.Start(1, 1, 0, 0, 30, 30)
}

// TestSpanFinishedAtLossStaysCandidate: a rebuild that resolves at the
// loss instant was still exposed when the loss struck, so it anchors the
// window even after its finish has been seen; a loss after that instant
// passes it over.
func TestSpanFinishedAtLossStaysCandidate(t *testing.T) {
	f := newFeed(Context{OpenLagHours: 0.5})
	a := f.start(1, 2, 1, 1.5)
	f.start(2, 3, 2, 2)
	a.Transfer = 2
	f.finish(a, 4, obs.OutcomeDone)
	f.event(loss(4, 9))
	f.event(loss(4.5, 9))
	rep := f.report(t)
	if p := rep.Posts[0]; p.Group != 2 || p.WindowHours != 3 {
		t.Fatalf("loss at 4 anchored on group %d, %g h; want group 2 (finished at 4), 3 h", p.Group, p.WindowHours)
	}
	if p := rep.Posts[1]; p.Group != 3 || p.WindowHours != 2.5 {
		t.Fatalf("loss at 4.5 anchored on group %d, %g h; want group 3, 2.5 h", p.Group, p.WindowHours)
	}
}

// TestLossBlameUsesLaterPhaseTime: a loss's blame decomposes its window
// with the rebuild's final phase accounting, including queue and
// transfer time accrued after the loss.
func TestLossBlameUsesLaterPhaseTime(t *testing.T) {
	f := newFeed(Context{OpenLagHours: 1})
	sp := f.start(1, 4, 0, 1)
	f.event(loss(2, 9))
	// The loss's candidate set closes here, before its rebuild finishes.
	f.event(trace.Event{Time: 3.5, Kind: trace.KindDiskFail, Disk: 12})
	// Accrued after the loss, at the attempt's end.
	sp.QueueWait, sp.Transfer = 1, 2
	f.finish(sp, 4, obs.OutcomeDone)
	p := f.report(t).Posts[0]
	// Window 2: detect 1 + queue 1 + transfer 2 overshoot it, so all
	// rescale by half; at the loss instant it would be detect 1 and
	// stalled 1.
	if p.WindowHours != 2 || math.Abs(p.Blame.Transfer-0.5) > 1e-12 ||
		math.Abs(p.Blame.Queue-0.25) > 1e-12 || p.Blame.Stalled != 0 {
		t.Fatalf("window %g, blame %+v; want transfer 0.5, queue 0.25, detect 0.25", p.WindowHours, p.Blame)
	}
	sumsToOne(t, p)
}

// TestDropReadsSpanAfterFinish: the engine finishes a span before it
// traces the drop, so the drop finds the span final and still followed,
// however many rebuilds open and finish at that instant in between.
func TestDropReadsSpanAfterFinish(t *testing.T) {
	f := newFeed(Context{OpenLagHours: 1})
	sp := f.start(1, 6, 1, 1.5)
	sp.Transfer = 1
	f.event(trace.Event{Time: 2, Kind: trace.KindResourceCrossRack, Rebuild: 1, Group: 6, Disk: 30})
	f.event(trace.Event{Time: 3, Kind: trace.KindRebuildParked, Rebuild: 1, Group: 6, Disk: 30})
	sp.Resourcings = 9 // over the default cap of 8, latched at the drop
	f.finish(sp, 5, obs.OutcomeDropped)
	for i := int32(2); i < 3*minSweep; i++ {
		other := f.start(i, int(i), 5, 5)
		f.finish(other, 5, obs.OutcomeDone)
	}
	f.event(trace.Event{Time: 5, Kind: trace.KindDropped, Rebuild: 1, Group: 6, Disk: 30})
	p := f.report(t).Posts[0]
	if p.Class != ClassSourceExhaustion || p.WindowHours != 4 {
		t.Fatalf("drop = %s over %g h; want %s over 4 h", p.Class, p.WindowHours, ClassSourceExhaustion)
	}
	var parked, crossed bool
	for _, l := range p.Chain {
		parked = parked || l.Kind == trace.KindRebuildParked.String()
		crossed = crossed || l.Kind == trace.KindResourceCrossRack.String()
	}
	if !parked || !crossed {
		t.Fatalf("chain = %+v, want the rebuild's park and cross-rack flight", p.Chain)
	}
	sumsToOne(t, p)
}

// TestAnalyzerMemoryFollowsOpenRebuilds: a long run whose rebuilds open
// and finish one after another keeps a bounded set of records, and a
// reused analyzer runs it again without allocating them anew.
func TestAnalyzerMemoryFollowsOpenRebuilds(t *testing.T) {
	a := NewAnalyzer()
	run := func() {
		a.Reset(Context{})
		for i := int32(1); i <= 10000; i++ {
			now := float64(i)
			sp := a.Start(i, int(i), 0, now, now, now)
			sp.DoneAt = now + 0.5
			a.Finish(sp)
		}
		a.Report()
	}
	run()
	if n := len(a.spans.live); n > 2*minSweep {
		t.Fatalf("%d records followed at the end of the run, want at most %d", n, 2*minSweep)
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > 4 {
		t.Fatalf("a rerun allocated %.0f times, want at most 4 (the report)", allocs)
	}
}
