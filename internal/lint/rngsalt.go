package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// RngSalt enforces the stream-isolation contract behind every
// byte-identity guarantee in the repo. Each subsystem that draws
// randomness derives its own stream by XORing the run seed with a
// private salt (`rng.New(seed ^ demandSeedSalt)`); two subsystems
// sharing a salt value silently share a stream, and enabling one then
// perturbs the other's draws — exactly the class of coupling the golden
// transcripts exist to forbid, and the hardest to spot in review because
// the collision lives in two different packages.
//
//   - locally: every constant operand of a binary XOR in non-test code
//     must be a named package-level constant whose name ends in Salt or
//     Seed — no inline magic numbers (`seed ^ 0xbad5ec70bad5ec70`),
//     which can't be audited for uniqueness at a glance;
//   - locally: no two salt constants in one package share a value;
//   - cross-package (via facts): the salt registries of a package and
//     its whole import closure are pairwise collision-free, so the
//     uniqueness proof spans every pair of packages that can ever run
//     in the same process.
var RngSalt = &Analyzer{
	Name: "rngsalt",
	Doc:  "XOR-derived RNG stream salts are named *Salt/*Seed constants, unique across the import closure",
	Run:  runRngSalt,
}

// saltFact is the package fact: the registry of named salt constants the
// package declares, with declaration positions so collision reports can
// point at both sides.
type saltFact struct {
	Salts []saltDecl `json:"salts"`
}

type saltDecl struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
	File  string `json:"file"`
	Line  int    `json:"line"`
}

// isSaltName matches the naming convention for stream-isolation
// constants: netSeedSalt, demandSeedSalt, degradedReadSalt,
// placementSeedSalt, ...
func isSaltName(name string) bool {
	const salt, seed = "Salt", "Seed"
	for _, suf := range [2]string{salt, seed} {
		if len(name) >= len(suf) && name[len(name)-len(suf):] == suf {
			return true
		}
	}
	return false
}

func runRngSalt(pass *Pass) error {
	// Pass 1: the package's declared salt registry, with the local
	// duplicate-value check.
	var local []saltDecl
	byValue := make(map[uint64]string)
	for _, file := range pass.Files {
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
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || !isSaltName(name.Name) {
						continue
					}
					v, ok := saltValue(obj)
					if !ok {
						continue
					}
					pos := pass.Fset.Position(name.Pos())
					if first, dup := byValue[v]; dup {
						pass.Reportf(name.Pos(), "salt %s duplicates the value of %s (%#x): every RNG stream needs its own salt", name.Name, first, v)
						continue
					}
					byValue[v] = name.Name
					local = append(local, saltDecl{Name: name.Name, Value: v, File: pos.Filename, Line: pos.Line})
				}
			}
		}
	}

	// Pass 2: every binary XOR whose operand is a compile-time constant
	// must name a salt constant — inline literals can't be registered.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.XOR {
				return true
			}
			for _, operand := range [2]ast.Expr{be.X, be.Y} {
				pass.checkXorOperand(operand)
			}
			return true
		})
	}

	// Pass 3 (cross-package): my registry against every dependency's,
	// and dependencies pairwise — the importer is the first unit whose
	// view contains both sides of a collision.
	owners := make(map[uint64][]saltOwner)
	for _, d := range local {
		owners[d.Value] = append(owners[d.Value], saltOwner{pkg: pass.Pkg.Path(), decl: d})
	}
	for _, dep := range pass.FactProviders() {
		var fact saltFact
		if !pass.ImportFact(dep, &fact) {
			continue
		}
		for _, d := range fact.Salts {
			owners[d.Value] = append(owners[d.Value], saltOwner{pkg: dep, decl: d})
		}
	}
	values := make([]uint64, 0, len(owners))
	for v := range owners { //farm:orderinvariant keys are sorted before use
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, v := range values {
		os := owners[v]
		if len(os) < 2 {
			continue
		}
		// Report at the lexicographically-last declaration so exactly one
		// deterministic position carries the finding; the message names
		// the other side. (Within-package duplicates already reported.)
		sort.Slice(os, func(i, j int) bool {
			if os[i].pkg != os[j].pkg {
				return os[i].pkg < os[j].pkg
			}
			return os[i].decl.Name < os[j].decl.Name
		})
		a, b := os[len(os)-2], os[len(os)-1]
		if a.pkg == b.pkg {
			continue
		}
		pass.report(Diagnostic{
			Pos:      token.Position{Filename: b.decl.File, Line: b.decl.Line, Column: 1},
			Analyzer: pass.Analyzer.Name,
			Message: fmt.Sprintf("salt %s.%s (%#x) collides with %s.%s: packages sharing a salt share an RNG stream",
				b.pkg, b.decl.Name, v, a.pkg, a.decl.Name),
		})
	}

	if len(local) > 0 {
		pass.ExportFact(saltFact{Salts: local})
	}
	return nil
}

type saltOwner struct {
	pkg  string
	decl saltDecl
}

// checkXorOperand reports a constant XOR operand that is not a reference
// to a named salt constant.
func (p *Pass) checkXorOperand(e ast.Expr) {
	e = unparen(e)
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return // not a compile-time integer constant: a variable seed side
	}
	// A named reference: `seed ^ demandSeedSalt` or `seed ^ pkg.FooSalt`.
	var named *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		named = e
	case *ast.SelectorExpr:
		named = e.Sel
	}
	if named != nil {
		if obj, ok := p.TypesInfo.Uses[named].(*types.Const); ok && isSaltName(obj.Name()) {
			return
		}
		p.Reportf(e.Pos(), "XOR with constant %s: stream salts must be named *Salt/*Seed constants so the registry can prove isolation", named.Name)
		return
	}
	val := tv.Value.ExactString()
	if u, exact := constant.Uint64Val(tv.Value); exact {
		val = fmt.Sprintf("%#x", u) // salts are written in hex; report them that way
	}
	p.Reportf(e.Pos(), "inline RNG salt %s: name it as a package-level *Salt/*Seed constant so the cross-package registry can prove stream isolation", val)
}

// saltValue extracts the constant's value as uint64 (the salt domain).
func saltValue(obj *types.Const) (uint64, bool) {
	v := obj.Val()
	if v.Kind() != constant.Int {
		return 0, false
	}
	if u, ok := constant.Uint64Val(v); ok {
		return u, true
	}
	if i, ok := constant.Int64Val(v); ok {
		return uint64(i), true
	}
	return 0, false
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
