package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// KindFlow proves the trace.Kind vocabulary is *alive*. The type keeps
// it closed: Kind is a small integer whose names live in internal/trace's
// kind table, so no inline string converts to a Kind. kindflow checks
// that every declared kind means something:
//
//   - locally, in internal/trace: every declared Kind constant must be
//     referenced by CheckCausality — the ordering contract is the whole
//     reason kinds exist as a closed vocabulary — or carry an explicit
//     //farm:nocausality <why> stating it is a pure marker with no
//     ordering semantics. A kind silently absent from CheckCausality is
//     an invariant nobody is checking;
//   - via facts: internal/trace exports its declared kinds, every other
//     package exports the kinds it references, and a //farm:factsink
//     package (one whose import closure spans the full simulator)
//     reports any declared kind no simulator code ever emits — a dead
//     vocabulary entry that transcript tooling and analysis scripts
//     will wait on forever. //farm:reserved <why> on the declaration
//     exempts a deliberately forward-declared kind.
var KindFlow = &Analyzer{
	Name: "kindflow",
	Doc:  "every trace.Kind is emitted somewhere in the simulator and has a CheckCausality rule or //farm:nocausality",
	Run:  runKindFlow,
}

// isTracePkg matches the trace package itself (and fixture stand-ins
// named trace).
func isTracePkg(path string) bool {
	return pkgPathBase(path) == "trace"
}

// isKindType reports whether t is the trace package's Kind type.
func isKindType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Kind" && obj.Pkg() != nil && isTracePkg(obj.Pkg().Path())
}

// kindFlowFact is the package fact: internal/trace exports Declared;
// every other package exports the kind constants it Uses.
type kindFlowFact struct {
	Declared []kindDecl `json:"declared,omitempty"`
	Uses     []string   `json:"uses,omitempty"`
}

type kindDecl struct {
	Name string `json:"name"`
	File string `json:"file"`
	Line int    `json:"line"`
	// Reserved exempts the declaration from the must-be-emitted check.
	Reserved bool `json:"reserved,omitempty"`
}

func runKindFlow(pass *Pass) error {
	fact := kindFlowFact{}
	if isTracePkg(pass.Pkg.Path()) {
		fact.Declared = pass.auditKindDecls()
	} else {
		fact.Uses = pass.collectKindUses()
	}
	if len(fact.Declared) > 0 || len(fact.Uses) > 0 {
		pass.ExportFact(fact)
	}
	if pass.packageHasDirective(dirFactSink) {
		pass.reportDeadKinds(fact)
	}
	return nil
}

// auditKindDecls runs the declaration-side check inside internal/trace:
// each Kind constant must appear in CheckCausality's body or carry
// //farm:nocausality. Returns the declared-kind fact records.
func (p *Pass) auditKindDecls() []kindDecl {
	// The set of Kind constants CheckCausality references.
	causality := make(map[*types.Const]bool)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "CheckCausality" || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if c, ok := p.TypesInfo.Uses[id].(*types.Const); ok && isKindType(c.Type()) {
					causality[c] = true
				}
				return true
			})
		}
	}

	var out []kindDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := p.TypesInfo.Defs[name].(*types.Const)
					if !ok || !isKindType(obj.Type()) {
						continue
					}
					pos := p.Fset.Position(name.Pos())
					_, noCausality := p.directiveAt(pos.Line, pos.Filename, dirNoCausality)
					_, reserved := p.directiveAt(pos.Line, pos.Filename, dirReserved)
					if !causality[obj] && !noCausality {
						p.Reportf(name.Pos(), "%s has no CheckCausality rule: give it an ordering invariant or annotate //farm:nocausality with why it is a pure marker", name.Name)
					}
					out = append(out, kindDecl{Name: name.Name, File: pos.Filename, Line: pos.Line, Reserved: reserved})
				}
			}
		}
	}
	return out
}

// collectKindUses gathers every trace.Kind constant this (non-trace)
// package references in non-test code — its emission vocabulary.
func (p *Pass) collectKindUses() []string {
	used := make(map[string]bool)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if c, ok := p.TypesInfo.Uses[id].(*types.Const); ok && isKindType(c.Type()) {
				used[c.Name()] = true
			}
			return true
		})
	}
	out := make([]string, 0, len(used))
	for name := range used { //farm:orderinvariant collected into a slice sorted below
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// reportDeadKinds is the sink-side aggregation: union the use sets of the
// whole import closure (plus the sink's own) and report declared kinds
// nothing emits.
func (p *Pass) reportDeadKinds(own kindFlowFact) {
	used := make(map[string]bool)
	var declared []kindDecl
	consume := func(fact kindFlowFact) {
		for _, u := range fact.Uses {
			used[u] = true
		}
		declared = append(declared, fact.Declared...)
	}
	consume(own)
	for _, dep := range p.FactProviders() {
		var fact kindFlowFact
		if p.ImportFact(dep, &fact) {
			consume(fact)
		}
	}
	sort.Slice(declared, func(i, j int) bool { return declared[i].Name < declared[j].Name })
	for _, d := range declared {
		if d.Reserved || used[d.Name] {
			continue
		}
		p.report(Diagnostic{
			Pos:      token.Position{Filename: d.File, Line: d.Line, Column: 1},
			Analyzer: p.Analyzer.Name,
			Message: "dead kind: " + d.Name +
				" is declared but never emitted anywhere in the simulator: emit it, delete it, or annotate //farm:reserved",
		})
	}
}
