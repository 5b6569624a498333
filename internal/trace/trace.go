// Package trace records the event stream of a simulation run — failures,
// detections, rebuilds, losses, warnings, batches — for inspection and
// replay. cmd/farmtrace dumps a run's trace as JSON lines; tests use the
// recorder to assert event ordering properties (a detection never precedes
// its failure, a rebuild never precedes its detection, ...).
//
// An Event names what happened (Kind, Time), where (Disk, Group, Rep,
// Rack), which block rebuild it belongs to (Rebuild, a per-run id; 0 when
// the event is not about a rebuild), and a typed numeric payload: a
// count N and two measurements X and Y. What the payload means depends
// on the kind; kinds not listed here carry none:
//
//	kind              N                    X               Y
//	disk-fail         blocks lost
//	data-loss         groups lost
//	burst             drives killed
//	slow-burst        drives slowed
//	scrub             latent errors found
//	batch-added       disks added
//	growth-batch      disks added
//	rack-unreachable  cause (Cause*)
//	failslow-onset                         slowdown factor
//	demand-burst                           hours           amplitude
//	upgrade-begin                          hours
//	throttle-step                          MB/s granted    fleet user share
//	degraded-reads    reads                mean ms         max ms
//
// Rebuild-scoped kinds (see the kind table) always carry the id of the
// rebuild they describe, so readers join events to each other and to
// obs.Span records by id.
//
// WriteJSONL writes a schema header line ({"trace_schema":2}) before the
// events; ReadJSONL refuses any other schema, including the unversioned
// schema-1 transcripts whose payloads were detail strings.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Schema is the JSONL transcript version WriteJSONL stamps and
// ReadJSONL requires. Version 1 (no header line) carried payloads as a
// "detail" string.
const Schema = 2

// Rack-unreachable causes, carried in Event.N.
const (
	CauseSwitchFail int32 = 1 // the rack's ToR switch died
	CausePower      int32 = 2 // a rack power event
	CausePartition  int32 = 3 // a transient network partition
)

// Kind labels an event. Each kind has one row in the kind table, which
// holds the name the JSONL transcript spells it with and the scope of
// its Disk and Rebuild fields. The zero Kind is the unnamed kind and
// encodes as "".
type Kind uint8

// Event kinds emitted by the simulator; each kind's payload is the table
// in the package doc. Kinds whose ordering is part of
// the trace contract appear in CheckCausality below; pure markers with
// no ordering semantics carry //farm:nocausality with the reason
// (farmlint's kindflow analyzer enforces that every kind does one or
// the other, and that every kind is emitted somewhere).
const (
	KindDiskFail   Kind = iota + 1 // a drive died
	KindDetect                     // the death was noticed
	KindRebuilt                    // one block reconstruction completed
	KindDropped                    // a rebuild was abandoned
	KindDataLoss                   //farm:nocausality group(s) crossed into data loss; losses from bursts or false-dead write-offs need no prior detection
	KindSmartWarn                  //farm:nocausality the health monitor fires from its own draw, not from a prior event
	KindDrained                    //farm:nocausality a drain completes from warn, plan, or eviction paths; no single required predecessor
	KindBatchAdded                 //farm:nocausality replacement batches trigger on cumulative failure counts, a threshold not visible per event

	// Fault-injection kinds (internal/faults).
	KindLSE         // a latent sector error arrived (undiscovered)
	KindLSEDetect   // a rebuild read discovered a latent error
	KindScrub       //farm:nocausality scrub passes run on a fixed period independent of other events
	KindScrubRepair // the scrubber queued a damaged replica for repair
	KindBurst       //farm:nocausality correlated bursts arrive from their own Poisson process; no predecessor
	KindRetry       //farm:nocausality transient read faults can hit the very first transfer of a rebuild
	KindSpareQueued //farm:nocausality queueing is a pool-capacity marker; exhaustion depends on counts, not one event

	// Fail-slow / straggler-mitigation kinds (gray failures and the
	// hedging layer in internal/recovery).
	KindFailSlowOnset   // a drive degraded
	KindFailSlowRecover // a degraded drive recovered
	KindFailSlowDetect  //farm:nocausality the peer-comparison detector scores observed service times, which lag onsets arbitrarily and survive recoveries
	KindHedge           // a duplicate transfer was launched
	KindHedgeWin        // the duplicate finished before the primary
	KindEvictSlow       //farm:nocausality eviction needs consecutive slow scores, a detector-internal streak not visible in the trace
	KindRebuildTimeout  //farm:nocausality timeouts fire against expected duration; the rebuild's queue event predates the recorder when spans are off
	KindSlowBurst       //farm:nocausality correlated slow-bursts arrive from their own Poisson process; no predecessor

	// Span-lifecycle kinds, emitted only when the flight recorder's
	// rebuild-lifecycle spans are enabled — transcripts recorded without
	// the obs stack stay byte-identical.
	KindRebuildQueued //farm:nocausality span marker, present only when span recording is on; rebuilds elsewhere in the trace have no queued event to order against
	KindTransferStart //farm:nocausality span marker, present only when span recording is on (see rebuild-queued)

	// Network fault-domain kinds (internal/topology + internal/faults).
	// Rack-scoped events carry the rack in Event.Rack.
	KindSwitchFail        //farm:nocausality ToR switch deaths arrive from their own failure process; no predecessor
	KindRackUnreachable   // a rack went dark
	KindPartitionHeal     // a dark rack became reachable again
	KindResourceCrossRack //farm:nocausality re-sourcing reacts to source-rack state at transfer time, not to one prior trace event
	KindFalseDead         // a dark rack's disks were declared lost

	// Living-fleet kinds (foreground traffic, recovery QoS, and planned
	// maintenance in internal/workload + internal/core).
	KindDemandBurst   //farm:nocausality foreground bursts arrive from the workload's own stream; no predecessor
	KindDegradedReads // a closed window's degraded reads
	KindThrottle      //farm:nocausality QoS steps track utilization thresholds, which move with load as well as events
	KindDrainPlanned  //farm:nocausality operator-scheduled; planned work has no in-trace cause
	KindUpgradeBegin  // a rack's rolling-upgrade window opened (read-only)
	KindUpgradeEnd    // the upgrade window closed (writes unfenced)
	KindGrowth        //farm:nocausality operator-scheduled; planned work has no in-trace cause

	// Forensic park/resume kinds: a rebuild's stalled intervals, emitted
	// so postmortems can attribute window time spent waiting on dark
	// racks or write fences.
	KindRebuildParked  // a rebuild stalled against a dark rack or write fence
	KindRebuildResumed // a parked rebuild was resubmitted
)

// kindRow is one kind's entry in the kind table.
type kindRow struct {
	name string
	// rebuild marks kinds that describe one block rebuild and so must
	// carry its id in Event.Rebuild.
	rebuild bool
	// cluster marks kinds whose Disk field carries no drive identity
	// (cluster- or rack-scope events). Every other kind's Disk names a
	// real drive — the failed, detected, warned, degraded, or
	// rebuilt-onto disk — except when negative (the emitter had no disk
	// in hand).
	cluster bool
}

// kinds is the kind table, indexed by Kind.
var kinds = [...]kindRow{
	KindDiskFail:   {name: "disk-fail"},
	KindDetect:     {name: "detect"},
	KindRebuilt:    {name: "rebuilt", rebuild: true},
	KindDropped:    {name: "dropped", rebuild: true},
	KindDataLoss:   {name: "data-loss"},
	KindSmartWarn:  {name: "smart-warn"},
	KindDrained:    {name: "drained"},
	KindBatchAdded: {name: "batch-added", cluster: true},

	KindLSE:         {name: "lse"},
	KindLSEDetect:   {name: "lse-detect"},
	KindScrub:       {name: "scrub", cluster: true},
	KindScrubRepair: {name: "scrub-repair"},
	KindBurst:       {name: "burst", cluster: true},
	KindRetry:       {name: "retry", rebuild: true},
	KindSpareQueued: {name: "spare-queued"},

	KindFailSlowOnset:   {name: "failslow-onset"},
	KindFailSlowRecover: {name: "failslow-recover"},
	KindFailSlowDetect:  {name: "failslow-detect"},
	KindHedge:           {name: "hedge", rebuild: true},
	KindHedgeWin:        {name: "hedge-win", rebuild: true},
	KindEvictSlow:       {name: "evict-slow"},
	KindRebuildTimeout:  {name: "rebuild-timeout", rebuild: true},
	KindSlowBurst:       {name: "slow-burst", cluster: true},

	KindRebuildQueued: {name: "rebuild-queued", rebuild: true},
	KindTransferStart: {name: "transfer-start", rebuild: true},

	// Rack-scoped network events keep their identity in Rack, not Disk;
	// resource-crossrack keeps a real disk, the new source.
	KindSwitchFail:        {name: "switch-fail", cluster: true},
	KindRackUnreachable:   {name: "rack-unreachable", cluster: true},
	KindPartitionHeal:     {name: "partition-heal", cluster: true},
	KindResourceCrossRack: {name: "resource-crossrack", rebuild: true},
	KindFalseDead:         {name: "false-dead", cluster: true},

	// Demand episodes, throttle steps and growth batches have no drive
	// identity, and upgrade windows are rack-scoped; degraded-reads and
	// drain-planned keep a real disk, the read source and the drained
	// drive.
	KindDemandBurst:   {name: "demand-burst", cluster: true},
	KindDegradedReads: {name: "degraded-reads", rebuild: true},
	KindThrottle:      {name: "throttle-step", cluster: true},
	KindDrainPlanned:  {name: "drain-planned"},
	KindUpgradeBegin:  {name: "upgrade-begin", cluster: true},
	KindUpgradeEnd:    {name: "upgrade-end", cluster: true},
	KindGrowth:        {name: "growth-batch", cluster: true},

	KindRebuildParked:  {name: "rebuild-parked", rebuild: true},
	KindRebuildResumed: {name: "rebuild-resumed", rebuild: true},
}

// byName lists every kind in name order, the unnamed zero kind first.
var byName = func() (out [len(kinds)]Kind) {
	for i := range out {
		out[i] = Kind(i)
	}
	sort.Slice(out[:], func(i, j int) bool { return kinds[out[i]].name < kinds[out[j]].name })
	return out
}()

// String returns the kind's transcript name.
func (k Kind) String() string {
	if int(k) >= len(kinds) {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kinds[k].name
}

// MarshalText spells the kind with its transcript name. It fails on a
// Kind outside the kind table.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kinds) {
		return nil, fmt.Errorf("trace: %v is not a declared kind", k)
	}
	return []byte(kinds[k].name), nil
}

// UnmarshalText reads a transcript name back into its Kind and rejects
// names the kind table does not know.
func (k *Kind) UnmarshalText(b []byte) error {
	for i := range kinds {
		if kinds[i].name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", b)
}

// Event is one timestamped simulator occurrence. Times are simulation
// hours. The layout is 56 bytes: a storm trajectory records hundreds of
// thousands of events, so every padded byte here is recorder memory.
type Event struct {
	Time    float64 `json:"t"`
	Kind    Kind    `json:"kind"`
	Disk    int32   `json:"disk,omitempty"`
	Group   int32   `json:"group,omitempty"`
	Rep     int32   `json:"rep,omitempty"`
	Rack    int32   `json:"rack,omitempty"`
	Rebuild int32   `json:"rebuild,omitempty"`
	N       int32   `json:"n,omitempty"`
	X       float64 `json:"x,omitempty"`
	Y       float64 `json:"y,omitempty"`
}

// Recorder buffers events in arrival order. Not safe for concurrent use —
// a simulation run is single-threaded, and each run gets its own Recorder.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event. The buffer doubles when full: a storm run
// records hundreds of thousands of events, and append's gentler growth
// for large slices would allocate several times the final stream.
func (r *Recorder) Record(e Event) {
	if len(r.events) == cap(r.events) {
		r.events = slices.Grow(r.events, max(len(r.events), 1024))
	}
	r.events = append(r.events, e)
}

// Events returns the recorded stream (caller must not mutate).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// header is the first line of a JSONL transcript.
type header struct {
	Schema int `json:"trace_schema"`
}

// WriteJSONL writes the schema header line, then one JSON object per
// event line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header{Schema}); err != nil {
		return err
	}
	for i := range r.events {
		if err := enc.Encode(&r.events[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a stream written by WriteJSONL. The stream must open
// with the current schema header, and event lines may carry no field
// the schema does not declare.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	var h header
	if err := dec.Decode(&h); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("trace: empty stream, want a schema %d header", Schema)
		}
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if h.Schema != Schema {
		v := max(h.Schema, 1) // no header: schema 1, payloads in detail strings
		return nil, fmt.Errorf("trace: transcript schema %d; this reader needs schema %d", v, Schema)
	}
	dec.DisallowUnknownFields()
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		out = append(out, e)
	}
	// More stops at a stray closing bracket; anything left is not a
	// transcript line.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("trace: trailing data after event %d", len(out))
	}
	return out, nil
}

// Summary aggregates an event stream.
type Summary struct {
	// Counts, FirstAt and LastAt hold each kind's number of events and
	// its first and last occurrence time, indexed by Kind (zero for kinds
	// absent from the stream).
	Counts  [len(kinds)]int
	FirstAt [len(kinds)]float64
	LastAt  [len(kinds)]float64
	// FirstLossAt is the time of the first data-loss event (-1 if none).
	FirstLossAt float64
	LastEventAt float64
	// DistinctDisks counts the distinct drives named by any disk-bearing
	// event — failures, detections, warnings, LSEs, degradations, and
	// rebuild targets alike — not just drives that died.
	DistinctDisks int
}

// Summarize computes a Summary.
func Summarize(events []Event) Summary {
	s := Summary{FirstLossAt: -1}
	disks := map[int32]bool{}
	for _, e := range events {
		if s.Counts[e.Kind] == 0 {
			s.FirstAt[e.Kind] = e.Time
		}
		s.Counts[e.Kind]++
		s.LastAt[e.Kind] = e.Time
		if e.Kind == KindDataLoss && s.FirstLossAt < 0 {
			s.FirstLossAt = e.Time
		}
		if e.Time > s.LastEventAt {
			s.LastEventAt = e.Time
		}
		if !kinds[e.Kind].cluster && e.Disk >= 0 {
			disks[e.Disk] = true
		}
	}
	s.DistinctDisks = len(disks)
	return s
}

// Kinds returns the kinds present in the stream in name order, the
// order WriteSummary prints them in.
func (s Summary) Kinds() []Kind {
	var out []Kind
	for _, k := range byName {
		if s.Counts[k] > 0 {
			out = append(out, k)
		}
	}
	return out
}

// WriteSummary prints a human-readable digest: one line per kind with
// its count and first/last occurrence, then the loss verdict.
func (s Summary) WriteSummary(w io.Writer) error {
	for _, k := range s.Kinds() {
		if _, err := fmt.Fprintf(w, "%-16s %7d   first %10.1f h   last %10.1f h\n",
			k, s.Counts[k], s.FirstAt[k], s.LastAt[k]); err != nil {
			return err
		}
	}
	var err error
	if s.FirstLossAt >= 0 {
		_, err = fmt.Fprintf(w, "first data loss at %.1f h (%.2f years)\n",
			s.FirstLossAt, s.FirstLossAt/8760)
	} else {
		_, err = fmt.Fprintln(w, "no data loss")
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "distinct disks seen: %d, last event at %.1f h\n",
		s.DistinctDisks, s.LastEventAt)
	return err
}

// CheckCausality verifies ordering invariants of a simulator trace:
//
//   - events are time-sorted;
//   - each disk's detection follows its failure;
//   - no block rebuild completes before some repair trigger (a
//     detection, a discovered latent error, or a scrub repair) has
//     appeared — rebuilds are always *re*actions;
//   - every rebuild-scoped event carries a rebuild id; an id reaches at
//     most one terminal event (rebuilt, hedge-win or dropped), and no
//     event carries the id after it;
//   - a hedge win follows a hedge launch of the same rebuild;
//   - a discovered latent error (lse-detect) follows the arrival of a
//     latent error on the same (disk, group);
//   - a fail-slow recovery follows a fail-slow onset on the same disk
//     (an episode must begin before it can end);
//   - a partition heal follows a rack-unreachable on the same rack
//     (racks only heal out of an outage);
//   - a false-dead declaration follows a rack-unreachable on the same
//     rack no earlier than the configured timeout after it (the policy
//     never fences a reachable or freshly-dark rack);
//   - degraded reads are sampled only when a window of vulnerability
//     closes, so like rebuilds they require a prior repair trigger;
//   - an upgrade-end follows an upgrade-begin on the same rack (windows
//     only close after they open);
//   - a rebuild-parked follows some rack darkening or upgrade fence
//     anywhere in the run (parks only exist against dark racks and
//     write fences; the predicate is sticky because a false-dead
//     write-off can redirect work into the still-dark rack at the very
//     timestamp that closes the outage);
//   - a rebuild-resumed follows a rebuild-parked of the same rebuild
//     (only parked work can resume).
//
// Returns the first violation found.
func CheckCausality(events []Event) error {
	type dg struct{ d, g int32 }
	last := -1.0
	failedAt := map[int32]float64{}
	hedged := map[int32]bool{}
	latent := map[dg]bool{}
	darkAt := map[int32]float64{}
	slow := map[int32]bool{}
	upgrading := map[int32]bool{}
	parked := map[int32]bool{}
	ended := map[int32]bool{}
	triggerSeen := false
	fenceSeen := false
	for i, e := range events {
		if e.Time < last {
			return fmt.Errorf("trace: event %d at %v precedes predecessor at %v", i, e.Time, last)
		}
		last = e.Time
		if kinds[e.Kind].rebuild {
			if e.Rebuild <= 0 {
				return fmt.Errorf("trace: %s on group %d rep %d carries no rebuild id", e.Kind, e.Group, e.Rep)
			}
			if ended[e.Rebuild] {
				return fmt.Errorf("trace: %s of rebuild %d after its terminal event", e.Kind, e.Rebuild)
			}
		}
		switch e.Kind {
		case KindDiskFail:
			failedAt[e.Disk] = e.Time
		case KindDetect:
			f, ok := failedAt[e.Disk]
			if !ok {
				return fmt.Errorf("trace: detect of disk %d without failure", e.Disk)
			}
			if e.Time < f {
				return fmt.Errorf("trace: detect of disk %d at %v precedes failure at %v", e.Disk, e.Time, f)
			}
			triggerSeen = true
		case KindLSE:
			latent[dg{e.Disk, e.Group}] = true
		case KindLSEDetect:
			if !latent[dg{e.Disk, e.Group}] {
				return fmt.Errorf("trace: lse-detect on disk %d group %d without a prior lse", e.Disk, e.Group)
			}
			triggerSeen = true
		case KindScrubRepair:
			if !latent[dg{e.Disk, e.Group}] {
				return fmt.Errorf("trace: scrub-repair on disk %d group %d without a prior lse", e.Disk, e.Group)
			}
			triggerSeen = true
		case KindRebuilt:
			if e.Time < 0 {
				return fmt.Errorf("trace: rebuild before start")
			}
			if !triggerSeen {
				return fmt.Errorf("trace: rebuilt of group %d rep %d before any detection", e.Group, e.Rep)
			}
			ended[e.Rebuild] = true
		case KindDropped:
			ended[e.Rebuild] = true
		case KindHedge:
			hedged[e.Rebuild] = true
		case KindHedgeWin:
			if !hedged[e.Rebuild] {
				return fmt.Errorf("trace: hedge-win of rebuild %d without a prior hedge", e.Rebuild)
			}
			ended[e.Rebuild] = true
		case KindFailSlowOnset:
			slow[e.Disk] = true
		case KindFailSlowRecover:
			if !slow[e.Disk] {
				return fmt.Errorf("trace: failslow-recover of disk %d without a prior failslow-onset", e.Disk)
			}
			delete(slow, e.Disk)
		case KindRackUnreachable:
			darkAt[e.Rack] = e.Time
			fenceSeen = true
		case KindPartitionHeal:
			if _, dark := darkAt[e.Rack]; !dark {
				return fmt.Errorf("trace: partition-heal of rack %d without a prior rack-unreachable", e.Rack)
			}
			delete(darkAt, e.Rack)
		case KindFalseDead:
			at, dark := darkAt[e.Rack]
			if !dark {
				return fmt.Errorf("trace: false-dead of rack %d without a prior rack-unreachable", e.Rack)
			}
			if e.Time <= at {
				return fmt.Errorf("trace: false-dead of rack %d at %v not after unreachable at %v", e.Rack, e.Time, at)
			}
			delete(darkAt, e.Rack)
		case KindDegradedReads:
			if !triggerSeen {
				return fmt.Errorf("trace: degraded-reads on group %d before any repair trigger", e.Group)
			}
		case KindUpgradeBegin:
			upgrading[e.Rack] = true
			fenceSeen = true
		case KindUpgradeEnd:
			if !upgrading[e.Rack] {
				return fmt.Errorf("trace: upgrade-end of rack %d without a prior upgrade-begin", e.Rack)
			}
			delete(upgrading, e.Rack)
		case KindRebuildParked:
			if !fenceSeen {
				return fmt.Errorf("trace: rebuild-parked on group %d rep %d before any rack outage or write fence", e.Group, e.Rep)
			}
			parked[e.Rebuild] = true
		case KindRebuildResumed:
			if !parked[e.Rebuild] {
				return fmt.Errorf("trace: rebuild-resumed of rebuild %d without a prior rebuild-parked", e.Rebuild)
			}
			delete(parked, e.Rebuild)
		}
	}
	return nil
}
