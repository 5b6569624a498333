// Package trace_test lives outside the trace package so the integration
// test can import internal/core (which itself imports trace) without a
// cycle.
package trace_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/disk"
	. "repro/internal/trace"
)

func TestRecorderRoundTrip(t *testing.T) {
	rec := NewRecorder()
	events := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 3, N: 10},
		{Time: 1.01, Kind: KindDetect, Disk: 3},
		{Time: 1.5, Kind: KindThrottle, Group: -1, Rep: -1, Disk: -1, X: 12.345678901, Y: 0.1 + 0.2},
		{Time: 2, Kind: KindRebuilt, Rebuild: 4, Group: 7, Rep: 1, Disk: 9},
	}
	for _, e := range events {
		rec.Record(e)
	}
	if rec.Len() != len(events) {
		t.Fatalf("Len = %d", rec.Len())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d", len(back))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	header := `{"trace_schema":2}` + "\n"
	for name, in := range map[string]string{
		"empty stream":       "",
		"unversioned":        `{"t":1,"kind":"disk-fail","disk":3,"detail":"blocks=10"}` + "\n",
		"future schema":      `{"trace_schema":3}` + "\n",
		"v1 line after v2":   header + `{"t":1,"kind":"disk-fail","detail":"blocks=10"}` + "\n",
		"overflowing field":  header + `{"t":1,"kind":"disk-fail","disk":4294967296}` + "\n",
		"trailing bracket":   header + "]",
		"truncated event":    header + `{"t":1,"kind":`,
		"string for payload": header + `{"t":1,"kind":"burst","n":"5"}` + "\n",
		"unknown kind":       header + `{"t":1,"kind":"bogus"}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := ReadJSONL(strings.NewReader(`{"t":1,"kind":"disk-fail","detail":"blocks=10"}`))
	if err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Errorf("unversioned transcript: error %v does not name schema 1", err)
	}
}

// TestEventSize pins the event layout. A storm trajectory's recorder
// held 186 MB of the 428 MB the trajectory allocated with 72-byte
// events; padding the event to 88 bytes cost +64 MB per trajectory and
// 104 bytes +80 MB (+19 %), at the benchmark's 20 % alloc bound. A
// one-byte Kind packs the event into 56 bytes.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 56 {
		t.Fatalf("trace.Event is %d bytes, want 56", n)
	}
}

// TestKindTable checks the kind table: every kind from the first
// declared one to the last table row has a unique, non-empty name that
// round-trips through MarshalText/UnmarshalText; the unnamed zero kind
// round-trips as ""; and a Kind past the table does not encode.
func TestKindTable(t *testing.T) {
	seen := map[string]Kind{}
	k := KindDiskFail
	for ; ; k++ {
		b, err := k.MarshalText()
		if err != nil {
			break
		}
		name := string(b)
		if name == "" || name != k.String() {
			t.Errorf("kind %d: name %q, String %q", uint8(k), name, k.String())
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
		var back Kind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Errorf("kind %q round-trips to %d (err %v)", name, uint8(back), err)
		}
	}
	if k != KindRebuildResumed+1 {
		t.Errorf("table ends at kind %d, want %d (the last declared kind + 1)", uint8(k), uint8(KindRebuildResumed+1))
	}
	if _, err := Kind(255).MarshalText(); err == nil {
		t.Error("out-of-range kind encoded")
	}
	var zero Kind
	if b, err := zero.MarshalText(); err != nil || len(b) != 0 {
		t.Errorf("zero kind encodes as %q (err %v), want \"\"", b, err)
	}
	if err := zero.UnmarshalText(nil); err != nil || zero != 0 {
		t.Errorf("\"\" decodes to %d (err %v), want the zero kind", uint8(zero), err)
	}
	if err := zero.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown kind name decoded")
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 1},
		{Time: 2, Kind: KindDiskFail, Disk: 2},
		{Time: 3, Kind: KindDataLoss, Disk: 2, N: 2},
		{Time: 4, Kind: KindRebuilt, Disk: 7},        // rebuild targets count as disks
		{Time: 5, Kind: KindSmartWarn, Disk: 9},      // so do warned drives
		{Time: 6, Kind: KindScrub},                   // cluster-wide: no disk identity
		{Time: 7, Kind: KindRebuildQueued, Disk: -1}, // negative disk: emitter had none
		{Time: 8, Kind: KindDiskFail, Disk: 1},       // duplicate: still one drive
	}
	s := Summarize(events)
	if s.Counts[KindDiskFail] != 3 || s.Counts[KindRebuilt] != 1 {
		t.Fatalf("counts wrong: %+v", s.Counts)
	}
	if s.FirstLossAt != 3 || s.LastEventAt != 8 {
		t.Fatalf("summary wrong: %+v", s)
	}
	// Distinct drives named anywhere: 1, 2, 7, 9 — scrub and the negative
	// disk contribute nothing.
	if s.DistinctDisks != 4 {
		t.Fatalf("DistinctDisks = %d, want 4", s.DistinctDisks)
	}
	if s.FirstAt[KindDiskFail] != 1 || s.LastAt[KindDiskFail] != 8 {
		t.Fatalf("disk-fail first/last = %v/%v, want 1/8",
			s.FirstAt[KindDiskFail], s.LastAt[KindDiskFail])
	}
	if s.FirstAt[KindRebuilt] != 4 || s.LastAt[KindRebuilt] != 4 {
		t.Fatalf("rebuilt first/last = %v/%v, want 4/4",
			s.FirstAt[KindRebuilt], s.LastAt[KindRebuilt])
	}
	var buf bytes.Buffer
	if err := s.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "first data loss at 3.0 h") {
		t.Fatalf("summary text wrong:\n%s", out)
	}
	if !strings.Contains(out, "distinct disks seen: 4") {
		t.Fatalf("summary text missing disk count:\n%s", out)
	}
}

func TestSummarizeNoLoss(t *testing.T) {
	s := Summarize([]Event{{Time: 1, Kind: KindDiskFail, Disk: 1}})
	if s.FirstLossAt != -1 {
		t.Fatal("FirstLossAt should be -1 with no loss")
	}
	var buf bytes.Buffer
	s.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "no data loss") {
		t.Fatal("summary should say no data loss")
	}
}

// failOn is a writer that fails every write containing its substring.
type failOn string

func (f failOn) Write(p []byte) (int, error) {
	if strings.Contains(string(p), string(f)) {
		return 0, errors.New("write refused")
	}
	return len(p), nil
}

// TestWriteSummaryLossVerdictError: a failed write of the loss-verdict
// line is returned, whichever verdict the line carries.
func TestWriteSummaryLossVerdictError(t *testing.T) {
	for _, events := range [][]Event{
		{{Time: 1, Kind: KindDiskFail, Disk: 1}},
		{{Time: 1, Kind: KindDataLoss, Disk: 1, N: 1}},
	} {
		if err := Summarize(events).WriteSummary(failOn("data loss")); err == nil {
			t.Errorf("verdict write error dropped for %v", events[0].Kind)
		}
	}
}

func TestCheckCausality(t *testing.T) {
	good := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 1},
		{Time: 1.5, Kind: KindDetect, Disk: 1},
		{Time: 2, Kind: KindRebuilt, Rebuild: 1},
	}
	if err := CheckCausality(good); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	unsorted := []Event{{Time: 2, Kind: KindDiskFail, Disk: 1}, {Time: 1, Kind: KindDetect, Disk: 1}}
	if err := CheckCausality(unsorted); err == nil {
		t.Fatal("unsorted trace accepted")
	}
	orphan := []Event{{Time: 1, Kind: KindDetect, Disk: 5}}
	if err := CheckCausality(orphan); err == nil {
		t.Fatal("orphan detect accepted")
	}
}

func TestCheckCausalityViolations(t *testing.T) {
	fail := Event{Time: 1, Kind: KindDiskFail, Disk: 1}
	detect := Event{Time: 1.5, Kind: KindDetect, Disk: 1}
	cases := []struct {
		name   string
		events []Event
	}{
		{"rebuilt before any detection", []Event{
			fail,
			{Time: 1.2, Kind: KindRebuilt, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"rebuild-scoped event without a rebuild id", []Event{
			fail, detect,
			{Time: 2, Kind: KindRetry, Group: 3, Rep: 0, Disk: 7},
		}},
		{"two terminal events for one rebuild", []Event{
			fail, detect,
			{Time: 2, Kind: KindRebuilt, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 3, Kind: KindDropped, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"event after the rebuild's terminal event", []Event{
			fail, detect,
			{Time: 2, Kind: KindDropped, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 3, Kind: KindTransferStart, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"hedge-win without hedge", []Event{
			fail, detect,
			{Time: 2, Kind: KindHedgeWin, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"hedge-win for a different rebuild of the same block", []Event{
			fail, detect,
			{Time: 2, Kind: KindHedge, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 3, Kind: KindHedgeWin, Rebuild: 2, Group: 3, Rep: 0, Disk: 7},
		}},
		{"lse-detect without lse", []Event{
			fail, detect,
			{Time: 2, Kind: KindLSEDetect, Disk: 4, Group: 9, Rep: 1},
		}},
		{"scrub-repair without lse", []Event{
			{Time: 2, Kind: KindScrubRepair, Disk: 4, Group: 9, Rep: 1},
		}},
		{"partition-heal without rack-unreachable", []Event{
			{Time: 2, Kind: KindPartitionHeal, Rack: 3},
		}},
		{"partition-heal for a different rack", []Event{
			{Time: 2, Kind: KindRackUnreachable, Rack: 1},
			{Time: 3, Kind: KindPartitionHeal, Rack: 3},
		}},
		{"partition-heal after the outage already healed", []Event{
			{Time: 2, Kind: KindRackUnreachable, Rack: 1},
			{Time: 3, Kind: KindPartitionHeal, Rack: 1},
			{Time: 4, Kind: KindPartitionHeal, Rack: 1},
		}},
		{"false-dead without rack-unreachable", []Event{
			{Time: 2, Kind: KindFalseDead, Rack: 3},
		}},
		{"false-dead at the unreachable instant", []Event{
			{Time: 2, Kind: KindRackUnreachable, Rack: 3},
			{Time: 2, Kind: KindFalseDead, Rack: 3},
		}},
		{"false-dead after the partition healed", []Event{
			{Time: 2, Kind: KindRackUnreachable, Rack: 3},
			{Time: 3, Kind: KindPartitionHeal, Rack: 3},
			{Time: 4, Kind: KindFalseDead, Rack: 3},
		}},
		{"rebuild-parked before any outage or fence", []Event{
			fail, detect,
			{Time: 2, Kind: KindRebuildParked, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"rebuild-resumed without a park", []Event{
			fail, detect,
			{Time: 2, Kind: KindRackUnreachable, Rack: 1},
			{Time: 3, Kind: KindRebuildResumed, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
		{"rebuild-resumed for a different rebuild of the same block", []Event{
			fail, detect,
			{Time: 2, Kind: KindRackUnreachable, Rack: 1},
			{Time: 2.5, Kind: KindRebuildParked, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 3, Kind: KindRebuildResumed, Rebuild: 2, Group: 3, Rep: 0, Disk: 7},
		}},
		{"rebuild-resumed twice for one park", []Event{
			fail, detect,
			{Time: 2, Kind: KindRackUnreachable, Rack: 1},
			{Time: 2.5, Kind: KindRebuildParked, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 3, Kind: KindPartitionHeal, Rack: 1},
			{Time: 3, Kind: KindRebuildResumed, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
			{Time: 4, Kind: KindRebuildResumed, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		}},
	}
	for _, tc := range cases {
		if err := CheckCausality(tc.events); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The legal orderings of the same kinds pass.
	good := []Event{
		fail, detect,
		{Time: 2, Kind: KindLSE, Disk: 4, Group: 9, Rep: 1},
		{Time: 2.5, Kind: KindRebuilt, Rebuild: 1, Group: 3, Rep: 0, Disk: 7},
		{Time: 3, Kind: KindLSEDetect, Disk: 4, Group: 9, Rep: 1},
		// A later rebuild of the same block has its own id.
		{Time: 3.2, Kind: KindRebuildQueued, Rebuild: 2, Group: 3, Rep: 0, Disk: -1},
		{Time: 3.5, Kind: KindHedge, Rebuild: 2, Group: 3, Rep: 0, Disk: 8},
		{Time: 4, Kind: KindHedgeWin, Rebuild: 2, Group: 3, Rep: 0, Disk: 8},
		{Time: 5, Kind: KindSwitchFail, Rack: 2},
		{Time: 5, Kind: KindRackUnreachable, Rack: 2, N: CauseSwitchFail},
		{Time: 6, Kind: KindRackUnreachable, Rack: 4, N: CausePartition},
		{Time: 7, Kind: KindPartitionHeal, Rack: 4},
		{Time: 29, Kind: KindFalseDead, Rack: 2},
		// A rack may go dark again after healing or fencing.
		{Time: 30, Kind: KindRackUnreachable, Rack: 4, N: CausePower},
		{Time: 31, Kind: KindPartitionHeal, Rack: 4},
	}
	if err := CheckCausality(good); err != nil {
		t.Fatalf("legal trace rejected: %v", err)
	}
}

// TestCheckCausalityForensicChains: the chains the forensics layer
// reconstructs postmortems from are causally legal end to end —
// a false-dead write-off after the rack darkened, and a parked rebuild
// resuming after the partition heals (including the re-park of the same
// rebuild against a second outage, and a park triggered at the fence of
// a rolling upgrade rather than a dark rack).
func TestCheckCausalityForensicChains(t *testing.T) {
	falseDead := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 1},
		{Time: 1.5, Kind: KindDetect, Disk: 1},
		{Time: 2, Kind: KindSwitchFail, Rack: 2},
		{Time: 2, Kind: KindRackUnreachable, Rack: 2, N: CauseSwitchFail},
		{Time: 3, Kind: KindRebuildParked, Rebuild: 1, Group: 5, Rep: 1, Disk: 9},
		{Time: 26, Kind: KindFalseDead, Rack: 2},
		{Time: 26, Kind: KindDiskFail, Disk: 40, Rack: 2},
		{Time: 26, Kind: KindDataLoss, Disk: 40, N: 1},
		// The write-off reopens the survivors: the park resumes at the
		// same instant the rack is marked reachable again.
		{Time: 26, Kind: KindRebuildResumed, Rebuild: 1, Group: 5, Rep: 1, Disk: 9},
	}
	if err := CheckCausality(falseDead); err != nil {
		t.Fatalf("false-dead write-off chain rejected: %v", err)
	}
	parkResume := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 1},
		{Time: 1.5, Kind: KindDetect, Disk: 1},
		{Time: 2, Kind: KindRackUnreachable, Rack: 3, N: CausePartition},
		{Time: 2.1, Kind: KindRebuildParked, Rebuild: 1, Group: 7, Rep: 0, Disk: 11},
		{Time: 14, Kind: KindPartitionHeal, Rack: 3},
		{Time: 14, Kind: KindRebuildResumed, Rebuild: 1, Group: 7, Rep: 0, Disk: 11},
		// The same rebuild may park again against a later outage.
		{Time: 20, Kind: KindRackUnreachable, Rack: 3, N: CausePower},
		{Time: 20.5, Kind: KindRebuildParked, Rebuild: 1, Group: 7, Rep: 0, Disk: 11},
		{Time: 30, Kind: KindPartitionHeal, Rack: 3},
		{Time: 30, Kind: KindRebuildResumed, Rebuild: 1, Group: 7, Rep: 0, Disk: 11},
		{Time: 31, Kind: KindRebuilt, Rebuild: 1, Group: 7, Rep: 0, Disk: 11},
	}
	if err := CheckCausality(parkResume); err != nil {
		t.Fatalf("park/resume chain rejected: %v", err)
	}
	fencePark := []Event{
		{Time: 1, Kind: KindDiskFail, Disk: 1},
		{Time: 1.5, Kind: KindDetect, Disk: 1},
		{Time: 2, Kind: KindUpgradeBegin, Rack: 4, X: 6},
		{Time: 2.2, Kind: KindRebuildParked, Rebuild: 3, Group: 9, Rep: 2, Disk: 13},
		{Time: 8, Kind: KindUpgradeEnd, Rack: 4},
		{Time: 8, Kind: KindRebuildResumed, Rebuild: 3, Group: 9, Rep: 2, Disk: 13},
	}
	if err := CheckCausality(fencePark); err != nil {
		t.Fatalf("write-fence park chain rejected: %v", err)
	}
}

func TestSimulatorTraceIsCausal(t *testing.T) {
	// Integration: a real run's trace passes the causality check and
	// contains the expected event kinds.
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 10 * disk.TB
	cfg.SmartAccuracy = 0.5
	cfg.SmartLeadHours = 24
	rec := NewRecorder()
	cfg.Hook = rec.Record
	s, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCausality(rec.Events()); err != nil {
		t.Fatal(err)
	}
	sum := Summarize(rec.Events())
	if sum.Counts[KindDiskFail] != res.DiskFailures {
		t.Fatalf("trace has %d failures, result says %d",
			sum.Counts[KindDiskFail], res.DiskFailures)
	}
	if sum.Counts[KindRebuilt] != res.BlocksRebuilt {
		t.Fatalf("trace has %d rebuilds, result says %d",
			sum.Counts[KindRebuilt], res.BlocksRebuilt)
	}
	if res.PredictedFailures > 0 && sum.Counts[KindSmartWarn] == 0 {
		t.Fatal("predictions made but no warnings traced")
	}
}
