package forensics

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func sumsToOne(t *testing.T, p Postmortem) {
	t.Helper()
	if s := p.Blame.Sum(); math.Abs(s-1) > 1e-9 {
		t.Errorf("postmortem %d (%s) blame sums to %.12f, want 1", p.Seq, p.Class, s)
	}
}

func TestAnalyzeFalseDeadLoss(t *testing.T) {
	events := []trace.Event{
		{Time: 2, Kind: trace.KindSwitchFail, Rack: 3},
		{Time: 2, Kind: trace.KindRackUnreachable, Rack: 3, N: trace.CauseSwitchFail},
		{Time: 26, Kind: trace.KindFalseDead, Rack: 3},
		{Time: 26, Kind: trace.KindDiskFail, Disk: 13, Rack: 3, N: 40},
		{Time: 26, Kind: trace.KindDataLoss, Disk: 13, N: 2},
	}
	rep := Analyze(events, nil, Context{})
	if rep.Losses != 1 || rep.Drops != 0 || len(rep.Posts) != 1 {
		t.Fatalf("losses=%d drops=%d posts=%d", rep.Losses, rep.Drops, len(rep.Posts))
	}
	p := rep.Posts[0]
	if p.Class != ClassFalseDead {
		t.Fatalf("class = %q", p.Class)
	}
	if p.WindowHours != 24 {
		t.Fatalf("window = %g, want 24 (the dark interval)", p.WindowHours)
	}
	if p.Blame.Stalled != 1 {
		t.Fatalf("blame = %+v, want all stalled", p.Blame)
	}
	if p.Groups != 2 {
		t.Fatalf("groups = %d", p.Groups)
	}
	sumsToOne(t, p)
	if len(p.Chain) < 2 || p.Chain[0].Kind != trace.KindRackUnreachable.String() {
		t.Fatalf("chain = %+v, want rack-unreachable first", p.Chain)
	}
}

func TestAnalyzeLSEDuringRebuildLoss(t *testing.T) {
	spans := []*obs.Span{{
		Group: 9, Rep: 1,
		FailedAt: 1, DetectedAt: 1.5, QueuedAt: 1.5, StartAt: 2, DoneAt: -1,
		QueueWait: 0.5, Transfer: 2,
		Attempts: 1, Outcome: obs.OutcomeUnfinished,
	}}
	events := []trace.Event{
		{Time: 1, Kind: trace.KindDiskFail, Disk: 2, N: 5},
		{Time: 1.5, Kind: trace.KindDetect, Disk: 2},
		{Time: 3, Kind: trace.KindLSE, Disk: 4, Group: 9, Rep: 2},
		{Time: 5, Kind: trace.KindLSEDetect, Disk: 4, Group: 9, Rep: 2},
		{Time: 5, Kind: trace.KindDataLoss, Disk: 4, N: 1},
	}
	rep := Analyze(events, spans, Context{})
	if len(rep.Posts) != 1 {
		t.Fatalf("posts = %d", len(rep.Posts))
	}
	p := rep.Posts[0]
	if p.Class != ClassLSERebuild {
		t.Fatalf("class = %q", p.Class)
	}
	if p.Group != 9 {
		t.Fatalf("group = %d", p.Group)
	}
	if p.WindowHours != 4 {
		t.Fatalf("window = %g, want 4 (loss at 5 minus block failed at 1)", p.WindowHours)
	}
	sumsToOne(t, p)
	// Additive split: detect 0.5, queue 0.5, transfer 2, stalled 1 → /4.
	if math.Abs(p.Blame.Detect-0.125) > 1e-12 || math.Abs(p.Blame.Transfer-0.5) > 1e-12 ||
		math.Abs(p.Blame.Stalled-0.25) > 1e-12 {
		t.Fatalf("blame = %+v", p.Blame)
	}
}

func TestAnalyzeBurstClasses(t *testing.T) {
	base := []trace.Event{
		{Time: 10, Kind: trace.KindBurst, N: 5},
		{Time: 10.5, Kind: trace.KindSpareQueued, Group: -1, Rep: -1, Disk: 7},
		{Time: 12, Kind: trace.KindDataLoss, Disk: 8, N: 1},
	}
	rep := Analyze(base, nil, Context{})
	if rep.Posts[0].Class != ClassBurstSpare {
		t.Fatalf("class = %q, want burst+spare-exhaustion", rep.Posts[0].Class)
	}
	if rep.Posts[0].Blame.Instant != 1 {
		t.Fatalf("span-less loss should be instant: %+v", rep.Posts[0].Blame)
	}
	sumsToOne(t, rep.Posts[0])

	noSpare := []trace.Event{base[0], base[2]}
	rep = Analyze(noSpare, nil, Context{})
	if rep.Posts[0].Class != ClassBurst {
		t.Fatalf("class = %q, want correlated-burst", rep.Posts[0].Class)
	}

	// Outside the association window the burst is forgotten.
	late := []trace.Event{base[0], {Time: 40, Kind: trace.KindDataLoss, Disk: 8, N: 1}}
	rep = Analyze(late, nil, Context{})
	if rep.Posts[0].Class != ClassIndependent {
		t.Fatalf("class = %q, want independent-failures", rep.Posts[0].Class)
	}
}

func TestAnalyzeDropClasses(t *testing.T) {
	mk := func(doneAt float64, group int, timedOut bool, resourcings int) *obs.Span {
		return &obs.Span{
			Rebuild: int32(group), Group: group, Rep: 0,
			FailedAt: 1, DetectedAt: 1.2, QueuedAt: 1.2, StartAt: 1.3, DoneAt: doneAt,
			QueueWait: 0.1, Transfer: 1, RetryWait: 0.4,
			Attempts: 2, TimedOut: timedOut, Resourcings: resourcings,
			Outcome: obs.OutcomeDropped,
		}
	}
	spans := []*obs.Span{
		mk(6, 1, false, 9), // over the default cap of 8
		mk(7, 2, true, 2),
		mk(8, 3, false, 0),
	}
	events := []trace.Event{
		{Time: 1, Kind: trace.KindDiskFail, Disk: 2, N: 5},
		{Time: 1.2, Kind: trace.KindDetect, Disk: 2},
		{Time: 5, Kind: trace.KindRebuildTimeout, Rebuild: 2, Group: 2, Rep: 0, Disk: 11},
		{Time: 6, Kind: trace.KindDropped, Rebuild: 1, Group: 1, Rep: 0, Disk: 10},
		{Time: 7, Kind: trace.KindDropped, Rebuild: 2, Group: 2, Rep: 0, Disk: 11},
		{Time: 8, Kind: trace.KindDropped, Rebuild: 3, Group: 3, Rep: 0, Disk: 12},
	}
	rep := Analyze(events, spans, Context{})
	if rep.Drops != 3 || len(rep.Posts) != 3 {
		t.Fatalf("drops=%d posts=%d", rep.Drops, len(rep.Posts))
	}
	want := []string{ClassSourceExhaustion, ClassTimeout, ClassGroupLost}
	for i, p := range rep.Posts {
		if p.Class != want[i] {
			t.Errorf("post %d class = %q, want %q", i, p.Class, want[i])
		}
		if p.WindowHours != p.T-1 {
			t.Errorf("post %d window = %g, want %g", i, p.WindowHours, p.T-1)
		}
		sumsToOne(t, p)
	}
}

func TestAnalyzeSpanlessDropUnattributed(t *testing.T) {
	events := []trace.Event{
		{Time: 6, Kind: trace.KindDropped, Rebuild: 1, Group: 1, Rep: 0, Disk: 10},
	}
	rep := Analyze(events, nil, Context{})
	p := rep.Posts[0]
	if p.Class != ClassUnattributed || p.Blame.Instant != 1 {
		t.Fatalf("post = %+v", p)
	}
	sumsToOne(t, p)
}

func TestAnalyzeStretchFactors(t *testing.T) {
	spans := []*obs.Span{{
		Rebuild: 1, Group: 5, Rep: 1,
		FailedAt: 0, DetectedAt: 0, QueuedAt: 0, StartAt: 0, DoneAt: 10,
		Transfer: 10,
		Attempts: 1, Outcome: obs.OutcomeDropped,
	}}
	events := []trace.Event{
		{Time: 0, Kind: trace.KindDiskFail, Disk: 2, N: 5},
		{Time: 0, Kind: trace.KindDetect, Disk: 2},
		{Time: 0.5, Kind: trace.KindFailSlowOnset, Disk: 20, X: 4},
		{Time: 1, Kind: trace.KindThrottle, Group: -1, Rep: -1, Disk: -1, X: 12, Y: 0.5},
		{Time: 2, Kind: trace.KindResourceCrossRack, Rebuild: 1, Group: 5, Rep: 1, Disk: 30},
		{Time: 10, Kind: trace.KindDropped, Rebuild: 1, Group: 5, Rep: 1, Disk: 20},
	}
	rep := Analyze(events, spans, Context{OversubscriptionRatio: 4})
	p := rep.Posts[0]
	sumsToOne(t, p)
	if p.Blame.FailSlow <= 0 || p.Blame.Contention <= 0 || p.Blame.Network <= 0 {
		t.Fatalf("stretch components missing: %+v", p.Blame)
	}
	// F = 4 × 2 × 4 = 32: 31/32 of transfer is slowdown, 1/32 honest.
	if p.Blame.Transfer <= 0 || p.Blame.Transfer > 0.05 {
		t.Fatalf("residual transfer fraction = %g, want ~1/32", p.Blame.Transfer)
	}
	// Log-partition: failslow and network carry equal factors (4 = 4).
	if math.Abs(p.Blame.FailSlow-p.Blame.Network) > 1e-12 {
		t.Fatalf("log partition skewed: %+v", p.Blame)
	}
}

func TestParkedChainLinks(t *testing.T) {
	spans := []*obs.Span{{
		Rebuild: 1, Group: 7, Rep: 0,
		FailedAt: 1, DetectedAt: 1.2, QueuedAt: 1.2, StartAt: 1.3, DoneAt: 30,
		QueueWait: 0.1, Transfer: 2,
		Attempts: 2, Outcome: obs.OutcomeDropped,
	}}
	events := []trace.Event{
		{Time: 1, Kind: trace.KindDiskFail, Disk: 2, N: 5},
		{Time: 1.2, Kind: trace.KindDetect, Disk: 2},
		{Time: 2, Kind: trace.KindRackUnreachable, Rack: 3, N: trace.CausePartition},
		{Time: 2.5, Kind: trace.KindRebuildParked, Rebuild: 1, Group: 7, Rep: 0, Disk: 9},
		{Time: 14, Kind: trace.KindPartitionHeal, Rack: 3},
		{Time: 14, Kind: trace.KindRebuildResumed, Rebuild: 1, Group: 7, Rep: 0, Disk: 9},
		{Time: 30, Kind: trace.KindDropped, Rebuild: 1, Group: 7, Rep: 0, Disk: 9},
	}
	rep := Analyze(events, spans, Context{})
	p := rep.Posts[0]
	sumsToOne(t, p)
	// The parked interval (2.5 → 14) is invisible to phase accounting,
	// so the stalled share dominates: 29h window, ~2.1h accounted.
	if p.Blame.Stalled < 0.8 {
		t.Fatalf("stalled = %g, want dominant", p.Blame.Stalled)
	}
	var sawPark, sawResume bool
	for _, l := range p.Chain {
		if l.Kind == trace.KindRebuildParked.String() {
			sawPark = true
		}
		if l.Kind == trace.KindRebuildResumed.String() {
			sawResume = true
		}
	}
	if !sawPark || !sawResume {
		t.Fatalf("chain missing park/resume: %+v", p.Chain)
	}
	// Chain is time-sorted.
	for i := 1; i < len(p.Chain); i++ {
		if p.Chain[i].T < p.Chain[i-1].T {
			t.Fatalf("chain unsorted: %+v", p.Chain)
		}
	}
}

// TestStaleBlockHistoryDoesNotLeak: two rebuilds of one block. The
// first parks, times out and crosses racks before it completes; the
// second drops. The drop's postmortem joins on its own rebuild id, so
// none of the first rebuild's history reaches its chain or its blame.
func TestStaleBlockHistoryDoesNotLeak(t *testing.T) {
	spans := []*obs.Span{
		{Rebuild: 1, Group: 7, Rep: 0, FailedAt: 1, DetectedAt: 1, QueuedAt: 1, StartAt: 1, DoneAt: 20,
			Transfer: 4, Attempts: 2, Outcome: obs.OutcomeDone},
		{Rebuild: 2, Group: 7, Rep: 0, FailedAt: 30, DetectedAt: 30, QueuedAt: 30, StartAt: 30, DoneAt: 40,
			Transfer: 10, Attempts: 1, Outcome: obs.OutcomeDropped},
	}
	events := []trace.Event{
		{Time: 1, Kind: trace.KindDiskFail, Disk: 2, N: 5},
		{Time: 1, Kind: trace.KindDetect, Disk: 2},
		{Time: 2, Kind: trace.KindRackUnreachable, Rack: 3, N: trace.CausePartition},
		{Time: 3, Kind: trace.KindRebuildParked, Rebuild: 1, Group: 7, Disk: 9},
		{Time: 5, Kind: trace.KindPartitionHeal, Rack: 3},
		{Time: 5, Kind: trace.KindRebuildResumed, Rebuild: 1, Group: 7, Disk: 9},
		{Time: 8, Kind: trace.KindRebuildTimeout, Rebuild: 1, Group: 7, Disk: 9},
		{Time: 9, Kind: trace.KindResourceCrossRack, Rebuild: 1, Group: 7, Disk: 30},
		{Time: 11, Kind: trace.KindRebuildParked, Rebuild: 1, Group: 7, Disk: 9},
		{Time: 20, Kind: trace.KindRebuilt, Rebuild: 1, Group: 7, Disk: 9},
		{Time: 30, Kind: trace.KindDiskFail, Disk: 9, N: 5},
		{Time: 30, Kind: trace.KindDetect, Disk: 9},
		{Time: 40, Kind: trace.KindDropped, Rebuild: 2, Group: 7, Disk: 12},
	}
	rep := Analyze(events, spans, Context{OversubscriptionRatio: 4})
	if len(rep.Posts) != 1 {
		t.Fatalf("posts = %d", len(rep.Posts))
	}
	p := rep.Posts[0]
	if p.Class != ClassGroupLost {
		t.Fatalf("class = %q, want group-lost (the timeout was the earlier rebuild's)", p.Class)
	}
	for _, l := range p.Chain {
		if l.T < 30 {
			t.Errorf("chain carries the earlier rebuild's %s at %g", l.Kind, l.T)
		}
	}
	if p.Blame.Network != 0 {
		t.Errorf("network stretch from the earlier rebuild's cross-rack flight: %+v", p.Blame)
	}
	sumsToOne(t, p)
}

func TestAggregateAndRecordInto(t *testing.T) {
	events := []trace.Event{
		{Time: 10, Kind: trace.KindBurst, N: 5},
		{Time: 12, Kind: trace.KindDataLoss, Disk: 8, N: 1},
		{Time: 13, Kind: trace.KindDropped, Rebuild: 1, Group: 1, Rep: 0, Disk: 10},
	}
	rep := Analyze(events, nil, Context{})
	agg := NewAggregate()
	agg.AddRun(rep)
	agg.AddRun(rep)
	agg.AddRun(nil) // skipped runs fold as nothing
	if agg.Runs != 2 || agg.Posts != 4 || agg.Losses != 2 || agg.Drops != 2 {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.ByClass[ClassBurst] != 2 || agg.ByClass[ClassUnattributed] != 2 {
		t.Fatalf("by-class = %+v", agg.ByClass)
	}
	mean := agg.MeanBlame()
	if math.Abs(mean.Sum()-1) > 1e-9 {
		t.Fatalf("mean blame sums to %g", mean.Sum())
	}
	reg := agg.Registry()
	if got := reg.Counter(obs.MetricPostmortems).Value(); got != 4 {
		t.Fatalf("postmortems_total = %d", got)
	}
	if got := reg.Counter(obs.MetricLossBurst).Value(); got != 2 {
		t.Fatalf("loss_correlated_burst_total = %d", got)
	}
	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty aggregate JSON")
	}
}

func TestPostmortemJSONLRoundTrip(t *testing.T) {
	events := []trace.Event{
		{Time: 10, Kind: trace.KindBurst, N: 5},
		{Time: 12, Kind: trace.KindDataLoss, Disk: 8, N: 1},
	}
	rep := Analyze(events, nil, Context{})
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPostmortemJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Class != rep.Posts[0].Class ||
		back[0].Blame != rep.Posts[0].Blame {
		t.Fatalf("round trip: %+v vs %+v", back, rep.Posts)
	}
}
