package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ConfigFlow is a dataflow contract over the whole simulator: an
// exported field on a Config/Policy struct is an operator-facing knob,
// and a knob is only real if (a) Validate vets it before a run starts
// and (b) something actually reads it afterwards. A NaN or ±Inf smuggled
// into a sweep config sails through `< 0` comparisons and silently
// poisons years of simulated arithmetic; a
// field that is validated but never read is a dead knob — the operator
// turns it and nothing happens, the evaluation silently runs a different
// system than its config claims — and the reader is frequently in a
// *different* package than the declaration (core reads topology's and
// workload's knobs), so the check cannot be package-local.
//
//   - locally, in the watched packages (core, faults, recovery,
//     topology, workload): every exported numeric field (integer,
//     float, or time.Duration) of an exported Config/Policy struct must
//     be referenced by the package's Validate/validate function;
//     //farm:anyvalue <why> exempts an integer field whose entire domain
//     is valid (e.g. a seed), but never a float or Duration, which
//     always needs its NaN/Inf or range guard;
//   - via facts: each watched package exports its declared fields (with
//     local read/validate bits) and every package exports the foreign
//     config fields it reads; a //farm:factsink package — one whose
//     import closure spans the full simulator — aggregates and reports
//     any field never read outside its own Validate anywhere in that
//     closure. //farm:reserved <why> exempts a deliberately dormant
//     knob.
//
// Reads are selector loads: assignments' left-hand sides and composite-
// literal keys are writes, so a knob that is set everywhere but
// consulted nowhere is still dead.
var ConfigFlow = &Analyzer{
	Name: "configflow",
	Doc:  "every exported Config/Policy field is validated and read outside Validate somewhere in the simulator",
	Run:  runConfigFlow,
}

// configFlowPkgs are the watched declaration packages.
var configFlowPkgs = map[string]bool{"core": true, "faults": true, "recovery": true, "topology": true, "workload": true}

// configFlowFact is the package fact. Watched packages export Fields;
// every package exports the foreign Reads it performs.
type configFlowFact struct {
	Fields []configFieldDecl `json:"fields,omitempty"`
	Reads  []configFieldRef  `json:"reads,omitempty"`
}

type configFieldDecl struct {
	Struct string `json:"struct"`
	Field  string `json:"field"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	// Read is true when the declaring package itself reads the field
	// outside Validate.
	Read bool `json:"read,omitempty"`
	// Reserved carries a //farm:reserved exemption from the read check.
	Reserved bool `json:"reserved,omitempty"`
}

type configFieldRef struct {
	Pkg    string `json:"pkg"`
	Struct string `json:"struct"`
	Field  string `json:"field"`
}

func (r configFieldRef) key() string { return r.Pkg + "." + r.Struct + "." + r.Field }

func runConfigFlow(pass *Pass) error {
	watched := configFlowPkgs[pkgPathBase(pass.Pkg.Path())]

	// Shared groundwork: which selector expressions are pure writes
	// (direct LHS of = / :=), and which field selections happen inside a
	// Validate function.
	writes := make(map[ast.Expr]bool)
	inValidate := make(map[ast.Node]bool) // Validate/validate function bodies
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					for _, lhs := range n.Lhs {
						writes[unparen(lhs)] = true
					}
				}
			case *ast.FuncDecl:
				if name := n.Name.Name; (name == "Validate" || name == "validate") && n.Body != nil {
					inValidate[n.Body] = true
				}
			}
			return true
		})
	}

	// Collect every field *read*: a FieldVal selection that is not a
	// pure write, split into local-struct reads and foreign reads, and
	// flagged by whether it sits inside a Validate body.
	localReads := make(map[*types.Var]bool)  // reads outside Validate, this package's structs
	validatedBy := make(map[*types.Var]bool) // references inside Validate (any selection)
	foreignReads := make(map[string]configFieldRef)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			insideValidate := inValidate[fd.Body]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				field, ok := s.Obj().(*types.Var)
				if !ok || field.Pkg() == nil {
					return true
				}
				ownStruct, structName := configOwner(s.Recv())
				if !ownStruct {
					return true
				}
				if field.Pkg() == pass.Pkg {
					if insideValidate {
						validatedBy[field] = true
					} else if !writes[sel] {
						localReads[field] = true
					}
					return true
				}
				// Foreign config field. Reads inside *our* Validate still
				// count: core.Validate consulting topology knobs is a read
				// outside topology's Validate.
				if writes[sel] {
					return true
				}
				if !configFlowPkgs[pkgPathBase(field.Pkg().Path())] {
					return true
				}
				ref := configFieldRef{Pkg: field.Pkg().Path(), Struct: structName, Field: field.Name()}
				foreignReads[ref.key()] = ref
				return true
			})
		}
	}

	fact := configFlowFact{}
	for _, ref := range foreignReads { //farm:orderinvariant collected into a slice sorted below
		fact.Reads = append(fact.Reads, ref)
	}
	sort.Slice(fact.Reads, func(i, j int) bool { return fact.Reads[i].key() < fact.Reads[j].key() })

	// Declaration audit in watched packages: numeric fields must be
	// covered by Validate (the local half), and every exported field is
	// exported as a fact for the sink's read audit (the global half).
	if watched {
		sawValidate := len(inValidate) > 0
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !isConfigStructName(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fact.Fields = append(fact.Fields,
						pass.auditConfigFlow(ts.Name.Name, st, validatedBy, localReads, sawValidate)...)
				}
			}
		}
	}
	if len(fact.Fields) > 0 || len(fact.Reads) > 0 {
		pass.ExportFact(fact)
	}

	// Sink aggregation: the dead-knob report.
	if pass.packageHasDirective(dirFactSink) {
		pass.reportDeadKnobs(fact)
	}
	return nil
}

// isConfigStructName matches the exported configuration types the
// contract covers.
func isConfigStructName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return name == "Config" || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")
}

// configOwner reports whether the selection's receiver is an exported
// Config/Policy struct, and its name.
func configOwner(recv types.Type) (bool, string) {
	for {
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
			continue
		}
		break
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false, ""
	}
	name := named.Obj().Name()
	return isConfigStructName(name), name
}

// auditConfigFlow checks one struct's fields locally and returns their
// fact records.
func (p *Pass) auditConfigFlow(typeName string, st *ast.StructType, validatedBy, localReads map[*types.Var]bool, sawValidate bool) []configFieldDecl {
	var out []configFieldDecl
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !ast.IsExported(name.Name) {
				continue
			}
			obj, ok := p.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			pos := p.Fset.Position(name.Pos())
			_, anyValue := p.directiveAt(pos.Line, pos.Filename, dirAnyValue)
			_, reserved := p.directiveAt(pos.Line, pos.Filename, dirReserved)
			if knob, exemptable := numericKnob(obj.Type()); knob && !(anyValue && exemptable) && !validatedBy[obj] {
				risk := "NaN/Inf or out-of-range values will reach the simulation"
				if exemptable {
					risk = "out-of-range values will reach the simulation (//farm:anyvalue if the whole domain is valid)"
				}
				if !sawValidate {
					p.Reportf(name.Pos(), "%s.%s is a numeric knob but package %s has no Validate function to check it", typeName, name.Name, p.Pkg.Name())
				} else {
					p.Reportf(name.Pos(), "%s.%s (%s) is never referenced by Validate: %s", typeName, name.Name, obj.Type().String(), risk)
				}
			}
			out = append(out, configFieldDecl{
				Struct:   typeName,
				Field:    name.Name,
				File:     pos.Filename,
				Line:     pos.Line,
				Read:     localReads[obj],
				Reserved: reserved,
			})
		}
	}
	return out
}

// numericKnob reports whether t is a numeric knob Validate must cover
// (an integer of any width, a float, or a time.Duration) and whether
// //farm:anyvalue may exempt it: only a plain integer may.
func numericKnob(t types.Type) (knob, exemptable bool) {
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration" {
			return true, false
		}
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false, false
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return true, true
	case b.Info()&types.IsFloat != 0:
		return true, false
	}
	return false, false
}

// reportDeadKnobs is the sink-side aggregation: union the read sets of
// the whole import closure (plus the sink's own) and report any declared
// field nobody reads outside its Validate.
func (p *Pass) reportDeadKnobs(own configFlowFact) {
	read := make(map[string]bool)
	var decls []struct {
		pkg  string
		decl configFieldDecl
	}
	consume := func(pkg string, fact configFlowFact) {
		for _, r := range fact.Reads {
			read[r.key()] = true
		}
		for _, d := range fact.Fields {
			if d.Read {
				read[configFieldRef{Pkg: pkg, Struct: d.Struct, Field: d.Field}.key()] = true
			}
			decls = append(decls, struct {
				pkg  string
				decl configFieldDecl
			}{pkg, d})
		}
	}
	consume(p.Pkg.Path(), own)
	for _, dep := range p.FactProviders() {
		var fact configFlowFact
		if p.ImportFact(dep, &fact) {
			consume(dep, fact)
		}
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].pkg != decls[j].pkg {
			return decls[i].pkg < decls[j].pkg
		}
		if decls[i].decl.Struct != decls[j].decl.Struct {
			return decls[i].decl.Struct < decls[j].decl.Struct
		}
		return decls[i].decl.Field < decls[j].decl.Field
	})
	for _, d := range decls {
		if d.decl.Reserved {
			continue
		}
		key := configFieldRef{Pkg: d.pkg, Struct: d.decl.Struct, Field: d.decl.Field}.key()
		if read[key] {
			continue
		}
		p.report(Diagnostic{
			Pos:      token.Position{Filename: d.decl.File, Line: d.decl.Line, Column: 1},
			Analyzer: p.Analyzer.Name,
			Message: "dead knob: " + d.pkg + "." + d.decl.Struct + "." + d.decl.Field +
				" is never read outside Validate anywhere in the simulator: wire it up, delete it, or annotate //farm:reserved",
		})
	}
}
