package forensics_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// numKinds is the size of the trace kind table, zero kind included.
var numKinds = len(trace.Summary{}.Counts)

// recordStorm runs the forensics smoke scenario (farmtrace's base at
// 10 TB) for one seed with the full trace and spans attached.
func recordStorm(t *testing.T, seed uint64) ([]trace.Event, []*obs.Span, forensics.Context) {
	t.Helper()
	data, err := os.ReadFile("../../scenarios/forensics-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 10 * disk.TB
	cfg.SmartLeadHours = 24
	if cfg, err = core.PatchConfig(cfg, data); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg.Hook = rec.Record
	spans := obs.NewSpanLog()
	cfg.Obs = &obs.RunObserver{Spans: spans}
	s, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(seed); err != nil {
		t.Fatal(err)
	}
	return rec.Events(), spans.Spans(), forensics.Context{
		OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
		MaxResourcings:        cfg.Faults.MaxResourcings,
	}
}

// TestAnalyzeIgnoresUnreadKinds: events of a kind outside Reads change
// nothing, wherever they sit in a storm stream and whatever disk, rack
// and rebuild they name; so the stream filtered to Reads analyses like
// the full one.
func TestAnalyzeIgnoresUnreadKinds(t *testing.T) {
	events, spans, ctx := recordStorm(t, 1)
	want := forensics.Analyze(events, spans, ctx)
	if want.Losses == 0 || want.Drops == 0 {
		t.Fatalf("storm gave %d losses and %d drops; the test is vacuous", want.Losses, want.Drops)
	}

	var filtered []trace.Event
	for _, e := range events {
		if forensics.Reads(e.Kind) {
			filtered = append(filtered, e)
		}
	}
	if len(filtered) == len(events) {
		t.Fatal("the storm recorded no unread kinds; the test is vacuous")
	}
	if got := forensics.Analyze(filtered, spans, ctx); !reflect.DeepEqual(got, want) {
		t.Fatal("the stream filtered to Reads analyses differently from the full stream")
	}

	// Insertion points: spread over the stream, and just before the
	// first few losses and drops, where the pass builds postmortems.
	var at []int
	for i := 0; i < 8; i++ {
		at = append(at, i*len(events)/8)
	}
	var rack, rebuild int32
	losses, drops := 0, 0
	for i, e := range events {
		switch {
		case e.Kind == trace.KindRackUnreachable && rack == 0:
			rack = e.Rack
		case e.Kind == trace.KindDataLoss && losses < 4:
			at = append(at, i)
			losses++
		case e.Kind == trace.KindDropped && drops < 4:
			if rebuild == 0 {
				rebuild = e.Rebuild
			}
			at = append(at, i)
			drops++
		}
	}
	slices.Sort(at)
	at = slices.Compact(at)
	for k := trace.Kind(0); int(k) < numKinds; k++ {
		if forensics.Reads(k) {
			continue
		}
		noisy := make([]trace.Event, 0, len(events)+len(at))
		prev := 0
		for _, i := range at {
			noisy = append(noisy, events[prev:i]...)
			e := events[i]
			e.Kind, e.N, e.X, e.Y = k, 3, 2, 1
			if e.Rack == 0 {
				e.Rack = rack
			}
			if e.Rebuild == 0 {
				e.Rebuild = rebuild
			}
			noisy = append(noisy, e)
			prev = i
		}
		noisy = append(noisy, events[prev:]...)
		if got := forensics.Analyze(noisy, spans, ctx); !reflect.DeepEqual(got, want) {
			t.Errorf("inserting %v events changed the report", k)
		}
	}
}

// TestReadsMatchesAnalyze: the reads table lists exactly the kinds the
// analyzer's switch (in Observe) has a case for, read off the source. A case missing
// from the table would be dead behind the skip; a table entry without a
// case would make the tap keep events the pass ignores.
func TestReadsMatchesAnalyze(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "forensics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	table, cases := map[string]bool{}, map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Names[0].Name != "reads" {
					continue
				}
				for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
					table[types.ExprString(elt.(*ast.KeyValueExpr).Key)] = true
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != "Observe" {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						cases[types.ExprString(e)] = true
					}
				}
				return true
			})
		}
	}
	admitted := 0
	for k := trace.Kind(0); int(k) <= numKinds; k++ {
		if forensics.Reads(k) {
			admitted++
		}
	}
	if admitted == 0 || admitted != len(table) {
		t.Fatalf("Reads admits %d kinds, the reads table in forensics.go lists %d", admitted, len(table))
	}
	for k := range table {
		if !cases[k] {
			t.Errorf("reads lists %s, but Observe has no case for it", k)
		}
	}
	for k := range cases {
		if !table[k] {
			t.Errorf("Observe has a case for %s, but reads does not list it", k)
		}
	}
}
