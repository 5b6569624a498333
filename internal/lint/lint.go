// Package lint is farmlint: a repo-specific static-analysis suite that
// mechanically enforces the simulator's determinism, hot-path, and
// validation invariants. Every result of the paper's evaluation rests on
// the Monte Carlo being a pure function of its seed; earlier PRs defend
// that property dynamically (golden transcripts, byte-identity tests,
// AllocsPerRun gates). farmlint turns the same contracts into law the
// compiler toolchain checks on every build:
//
//   - nodeterm: no wall-clock reads, no global randomness, no
//     order-dependent map iteration in simulator packages
//     (annotate intentional exceptions with //farm:orderinvariant or
//     //farm:wallclock);
//   - hotpath: functions annotated //farm:hotpath must stay structurally
//     allocation-free (no fmt/errors calls, closures, map/chan makes,
//     non-self appends, defers);
//   - seqtie: every container/heap element ordering must tie-break on an
//     explicit sequence number, so simultaneous events pop in a
//     deterministic order.
//
// The v2 analyzers are cross-package: each package exports *facts*
// (see facts.go) that flow along import edges, so contracts spanning
// the whole module are checked mechanically:
//
//   - rngsalt: every XOR-derived RNG stream seed uses a named
//     *Salt/*Seed package constant — no inline magic salts — and no two
//     packages in an import closure share a salt value;
//   - unitcheck: quantities named by the repo's unit suffixes (*Hours,
//     *Ms, *MBps, *Bytes, *Ratio, *PerHour) are never added, compared,
//     or assigned across units, and cross-unit multiply/divide must be
//     a recognized conversion (annotate exceptions //farm:unitless);
//   - configflow: every exported field of a Config/Policy struct in
//     core/faults/recovery/topology/workload is validated (numeric
//     fields referenced by Validate; //farm:anyvalue exempts integers,
//     never floats or Durations) and read outside Validate somewhere in
//     the simulator's import closure (//farm:reserved exempts) — the
//     NaN guard and the dead-knob detector;
//   - kindflow: every trace.Kind constant carries a CheckCausality rule
//     or //farm:nocausality, and is actually used outside internal/trace
//     somewhere in the simulator — the dead-kind detector.
//
// Two vocabularies need no analyzer: trace.Kind and obs.Name are small
// integer types with one name table each, so an inline string does not
// compile as a kind or a metric name, and unit tests over the two tables
// check that the names are unique (and, for metrics, snake_case).
//
// The suite is framework-compatible in spirit with
// golang.org/x/tools/go/analysis but deliberately depends only on the
// standard library (go/ast, go/types, go/importer), so the repo builds
// offline with no module downloads. cmd/farmlint is the driver: it runs
// standalone over package patterns and also speaks the `go vet -vettool`
// unitchecker protocol.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer (stdlib-only).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fixtures.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects one type-checked package and reports diagnostics
	// through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// DepFacts maps each dependency import path (transitively) to the
	// FactSet its analyzers exported. Nil when the package has no
	// in-module dependencies.
	DepFacts map[string]FactSet

	// exported collects the facts this package's analyzers export; the
	// driver shares one set across the whole suite for the package.
	exported FactSet

	// ann is the lazily built //farm:* annotation index for the package.
	ann *annotations

	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a *_test.go file. The
// determinism and hot-path contracts bind the simulator binary, not its
// tests (benchmarks legitimately read the wall clock; table tests walk
// maps), so every analyzer skips test files.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Analyzers returns the full farmlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterm,
		HotPath,
		SeqTie,
		RngSalt,
		UnitCheck,
		ConfigFlow,
		KindFlow,
	}
}

// RunAnalyzers applies every analyzer in the suite to one loaded
// package, with deps carrying the facts of its (transitive) in-module
// dependencies, and returns the findings sorted by position plus the
// FactSet the package's analyzers exported.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, deps map[string]FactSet) ([]Diagnostic, FactSet, error) {
	var out []Diagnostic
	exported := make(FactSet)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			DepFacts:  deps,
			exported:  exported,
			report:    func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sortDiagnostics(out)
	return out, exported, nil
}

// sortDiagnostics orders findings by position, then analyzer name.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupeDiagnostics removes exact duplicates from a sorted slice.
// Cross-package analyzers report a collision between two dependencies
// from every package that imports both; the finding is one finding.
func dedupeDiagnostics(in []Diagnostic) []Diagnostic {
	out := in[:0]
	for i, d := range in {
		if i > 0 && d == in[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// pkgPathBase returns the last segment of an import path, with any
// " [test-variant]" suffix the go command appends stripped first.
func pkgPathBase(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// cleanPkgPath strips the " [test-variant]" suffix from an import path.
func cleanPkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}
