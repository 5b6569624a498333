package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
)

func TestTraceTable(t *testing.T) {
	events := []trace.Event{
		{Time: 10, Kind: trace.KindDiskFail, Disk: 1},
		{Time: 20, Kind: trace.KindDiskFail, Disk: 2},
		{Time: 25, Kind: trace.KindDetect, Disk: 1},
		{Time: 500, Kind: trace.KindDataLoss, Disk: 2},
		{Time: 1000, Kind: trace.KindRebuilt, Disk: 3},
	}
	var buf bytes.Buffer
	if err := traceTable(events).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// disk-fail: 2 events, first 10, last 20, rate 2/1000h * 1000 = 2.00.
	for _, want := range []string{
		"disk-fail", "2", "10.0", "20.0", "2.00",
		"5 events, 3 distinct disks, last event at 1000.0 h",
		"first data loss at 500.0 h",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace table missing %q:\n%s", want, out)
		}
	}
	// Kinds are emitted sorted.
	if strings.Index(out, "data-loss") > strings.Index(out, "disk-fail") {
		t.Errorf("kinds not sorted:\n%s", out)
	}
}

func TestTraceTableNoLoss(t *testing.T) {
	var buf bytes.Buffer
	events := []trace.Event{{Time: 1, Kind: trace.KindDiskFail, Disk: 1}}
	if err := traceTable(events).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data loss") {
		t.Errorf("missing no-data-loss note:\n%s", buf.String())
	}
}

func TestDegradedTable(t *testing.T) {
	events := []trace.Event{
		{Time: 50, Kind: trace.KindDemandBurst, X: 2, Y: 0.25},
		// Two windows inside the burst episode, one outside, one empty.
		{Time: 50.5, Kind: trace.KindDegradedReads, Disk: 3, N: 4, X: 40, Y: 80},
		{Time: 51, Kind: trace.KindDegradedReads, Disk: 4, N: 2, X: 60, Y: 90},
		{Time: 200, Kind: trace.KindDegradedReads, Disk: 5, N: 2, X: 10, Y: 12},
		{Time: 201, Kind: trace.KindDegradedReads, Disk: 6},
		{Time: 300, Kind: trace.KindThrottle, X: 8, Y: 0.65},
		{Time: 400, Kind: trace.KindThrottle, X: 16, Y: 0.2},
	}
	tab := degradedTable(events)
	if tab == nil {
		t.Fatal("degradedTable returned nil for a trace with degraded reads")
	}
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"all windows", "in demand burst", "outside bursts",
		// All windows: 3 with reads, 8 reads, weighted mean (160+120+20)/8 = 37.5.
		"3", "8", "37.5",
		// Burst rows: 2 windows, 6 reads; outside: 1 window, 2 reads, mean 10.
		"6", "10",
		"2 throttle steps; final recovery rate 16.0 MB/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded table missing %q:\n%s", want, out)
		}
	}
	// A trace with no degraded reads yields no table at all.
	if degradedTable(events[:1]) != nil {
		t.Error("degradedTable should be nil without degraded-read events")
	}
}

func testSpans() []*obs.Span {
	return []*obs.Span{
		{
			Group: 1, Rep: 0, FailedAt: 10, DetectedAt: 11, QueuedAt: 11,
			StartAt: 12, DoneAt: 14, QueueWait: 1, Transfer: 2,
			Attempts: 1, Outcome: obs.OutcomeDone,
		},
		{
			Group: 2, Rep: 1, FailedAt: 20, DetectedAt: 23, QueuedAt: 23,
			StartAt: 24, DoneAt: 30, QueueWait: 1, Transfer: 4,
			RetryWait: 1, HedgeOverlap: 0.5,
			Attempts: 3, Retries: 1, Redirections: 1, Hedges: 1, HedgeWon: true,
			Outcome: obs.OutcomeDone,
		},
		{
			Group: 3, Rep: 0, FailedAt: 40, DetectedAt: 41, QueuedAt: 41,
			StartAt: 42, DoneAt: 45, QueueWait: 1, Transfer: 2,
			Attempts: 2, Resourcings: 1, TimedOut: true,
			Outcome: obs.OutcomeDropped,
		},
		{
			Group: 4, Rep: 2, FailedAt: 90, DetectedAt: 92, QueuedAt: 92,
			StartAt: -1, DoneAt: -1, Attempts: 1,
			Outcome: obs.OutcomeUnfinished,
		},
	}
}

func TestSpanTables(t *testing.T) {
	tabs := spanTables(testSpans())
	if len(tabs) != 2 {
		t.Fatalf("spanTables returned %d tables, want 2", len(tabs))
	}
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{
		// All four spans contribute detect/queue/transfer rows; retry and
		// hedge only count spans where the phase occurred.
		"detect wait", "queue wait", "transfer", "retry backoff", "hedge overlap",
		// window (done) covers the two done spans: 4 h and 10 h.
		"window (done)",
		// Outcome shares over 4 spans.
		"done", "50.0%", "dropped", "25.0%", "unfinished",
		"4 spans, 7 attempts, 1 retries, 1 redirections, 1 re-sourcings",
		"1 hedges (1 won), 1 timeouts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span tables missing %q:\n%s", want, out)
		}
	}
}

func TestSpanTablesEmpty(t *testing.T) {
	tabs := spanTables(nil)
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "0 spans, 0 attempts") {
		t.Errorf("empty span tables wrong:\n%s", out)
	}
	// Empty phases render placeholder rows, not NaNs.
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN leaked into empty table:\n%s", out)
	}
}

func TestSeriesTable(t *testing.T) {
	samples := []obs.Sample{
		{T: 0, ActiveRebuilds: 0, AliveDisks: 100, SparePoolFree: -1},
		{T: 24, ActiveRebuilds: 4, QueuedTransfers: 2, BusyDisks: 8,
			RecoveryMBps: 160, DegradedGroups: 3, AliveDisks: 99, SparePoolFree: -1},
		{T: 48, ActiveRebuilds: 2, BusyDisks: 4, RecoveryMBps: 80,
			DegradedGroups: 1, LostGroups: 1, AliveDisks: 99, SlowDisks: 1,
			SuspectDisks: 1, SparePoolFree: -1},
	}
	var buf bytes.Buffer
	if err := seriesTable(samples).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"active rebuilds", "queued transfers", "busy disks", "recovery MB/s",
		"degraded groups", "lost groups", "alive disks", "slow disks",
		"suspect disks",
		"3 samples from 0.0 h to 48.0 h",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series table missing %q:\n%s", want, out)
		}
	}
	// active rebuilds: mean 2, max 4, final 2.
	if !strings.Contains(out, "active rebuilds   2       4    2") {
		t.Errorf("series table numbers wrong:\n%s", out)
	}
}

func TestSeriesTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := seriesTable(nil).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no samples") {
		t.Errorf("empty series table wrong:\n%s", buf.String())
	}
}

// TestRunEndToEnd exercises the file-parsing half: write the three JSONL
// artifact shapes to disk, run the aggregator over them, and check all
// tables appear in one stream (text and CSV).
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()

	tracePath := filepath.Join(dir, "trace.jsonl")
	rec := trace.NewRecorder()
	rec.Record(trace.Event{Time: 1, Kind: trace.KindDiskFail, Disk: 0})
	rec.Record(trace.Event{Time: 2, Kind: trace.KindDetect, Disk: 0})
	var tb bytes.Buffer
	if err := rec.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	spanPath := filepath.Join(dir, "spans.jsonl")
	var sb bytes.Buffer
	enc := json.NewEncoder(&sb)
	for _, sp := range testSpans() {
		if err := enc.Encode(sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(spanPath, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	seriesPath := filepath.Join(dir, "series.jsonl")
	ser := obs.NewSeries()
	ser.Add(obs.Sample{T: 0, AliveDisks: 10, SparePoolFree: -1})
	ser.Add(obs.Sample{T: 24, AliveDisks: 9, SparePoolFree: -1})
	var rb bytes.Buffer
	if err := ser.WriteJSONL(&rb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seriesPath, rb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	postsPath := filepath.Join(dir, "post.jsonl")
	var pb bytes.Buffer
	rep := forensics.Report{Posts: testPostmortems(), Losses: 2, Drops: 1}
	if err := rep.WriteJSONL(&pb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(postsPath, pb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, tracePath, spanPath, seriesPath, postsPath, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Trace events by kind", "Rebuild phase breakdown", "Rebuild outcomes",
		"System-state series", "Loss taxonomy", "Window-of-vulnerability blame",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("combined output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run(&out, tracePath, "", "", "", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kind,count") {
		t.Errorf("CSV output missing header:\n%s", out.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, filepath.Join(t.TempDir(), "nope.jsonl"), "", "", "", false); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunBadJSON(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(p, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, p, "", "", "", false); err == nil {
		t.Fatal("garbage accepted")
	}
}

func testPostmortems() []forensics.Postmortem {
	return []forensics.Postmortem{
		{T: 100, Kind: trace.KindDataLoss, Class: forensics.ClassFalseDead,
			Groups: 3, WindowHours: 24, Blame: forensics.Blame{Stalled: 1}},
		{T: 200, Kind: trace.KindDataLoss, Class: forensics.ClassLSERebuild,
			Groups: 1, WindowHours: 4,
			Blame: forensics.Blame{Detect: 0.125, Queue: 0.125, Transfer: 0.5, Stalled: 0.25}},
		{T: 300, Kind: trace.KindDropped, Class: forensics.ClassTimeout,
			WindowHours: 8,
			Blame:       forensics.Blame{Transfer: 0.5, Retry: 0.25, FailSlow: 0.25}},
	}
}

// TestPostmortemTables: the taxonomy table lists each class once in
// display order with its share and windows, and the blame table's mean
// fractions average the input vectors.
func TestPostmortemTables(t *testing.T) {
	tabs := postmortemTables(testPostmortems())
	if len(tabs) != 2 {
		t.Fatalf("postmortemTables returned %d tables, want 2", len(tabs))
	}
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"false-dead-writeoff", "lse-during-rebuild", "timeout-abandon",
		"3 postmortems, 4 groups lost",
		// Mean stalled fraction (1 + 0.25 + 0)/3 = 41.7%; mean transfer
		// (0 + 0.5 + 0.5)/3 = 33.3%.
		"stalled (parked/fenced)", "41.7%",
		"transfer", "33.3%",
		"fail-slow stretch", "8.3%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("postmortem tables missing %q:\n%s", want, out)
		}
	}
	// Unused classes do not render empty rows.
	if strings.Contains(out, forensics.ClassBurstSpare) {
		t.Errorf("unused class rendered:\n%s", out)
	}
}
