package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoDeterm enforces the determinism contract: a simulation run is a pure
// function of its seed. Inside simulator packages it forbids
//
//   - wall-clock reads (time.Now/Since/Until) — simulated time comes from
//     the sim.Engine clock; reporting-only timing must be justified with
//     //farm:wallclock <reason>;
//   - math/rand and crypto/rand — all randomness flows through the pinned
//     xoshiro256** streams of internal/rng (math/rand's top-level
//     functions are globally seeded and algorithm-unstable across Go
//     releases);
//   - ranging over a map with order-dependent effects in the body — Go
//     randomizes map iteration order per run, so any fold that is not
//     commutative-and-associative (float sums, appends, early returns,
//     calls) silently breaks byte-identity. Iterate sorted keys, or
//     justify a genuinely order-invariant walk with
//     //farm:orderinvariant <reason>.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall clocks, global randomness, and order-dependent map iteration in simulator packages",
	Run:  runNoDeterm,
}

// forbiddenRandImports are packages whose presence alone breaks seeded
// reproducibility (global state, or OS entropy).
var forbiddenRandImports = map[string]string{
	"math/rand":    "globally seeded and algorithm-unstable; use repro/internal/rng",
	"math/rand/v2": "globally seeded; use repro/internal/rng",
	"crypto/rand":  "draws OS entropy; use repro/internal/rng",
}

// nodetermExempt lists package-path base names outside the determinism
// contract: rng implements the sanctioned generator, lint is the tooling
// itself, and examples are non-simulation demos.
func nodetermGuarded(path string) bool {
	switch pkgPathBase(path) {
	case "rng", "lint":
		return false
	}
	for _, seg := range [...]string{"examples/", "lint/"} {
		if containsSegment(path, seg) {
			return false
		}
	}
	return true
}

func containsSegment(path, seg string) bool {
	for i := 0; i+len(seg) <= len(path); i++ {
		if path[i:i+len(seg)] == seg && (i == 0 || path[i-1] == '/') {
			return true
		}
	}
	return false
}

func runNoDeterm(pass *Pass) error {
	if !nodetermGuarded(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := importPath(imp)
			if why, bad := forbiddenRandImports[path]; bad {
				pass.Reportf(imp.Pos(), "import of %s breaks seeded determinism: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pass.checkWallClock(n)
			case *ast.RangeStmt:
				pass.checkMapRange(n)
			}
			return true
		})
	}
	return nil
}

func importPath(imp *ast.ImportSpec) string {
	if imp.Path == nil {
		return ""
	}
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// wallClockFuncs are the time package entry points that read the host
// clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func (p *Pass) checkWallClock(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !wallClockFuncs[sel.Sel.Name] {
		return
	}
	obj := p.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	pos := p.Fset.Position(call.Pos())
	if why, ok := p.directiveAt(pos.Line, pos.Filename, dirWallClock); ok {
		if why == "" {
			p.Reportf(call.Pos(), "//farm:wallclock needs a justification (why is wall-clock time safe here?)")
		}
		return
	}
	p.Reportf(call.Pos(), "time.%s reads the wall clock; simulation time must come from the sim.Engine clock (annotate reporting-only timing with //farm:wallclock <reason>)", sel.Sel.Name)
}

// checkMapRange flags `range m` over a map whose body has effects that
// observe iteration order.
func (p *Pass) checkMapRange(rs *ast.RangeStmt) {
	tv, ok := p.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pos := p.Fset.Position(rs.Pos())
	if why, ok := p.directiveAt(pos.Line, pos.Filename, dirOrderInvariant); ok {
		if why == "" {
			p.Reportf(rs.Pos(), "//farm:orderinvariant needs a justification (why is this map walk order-invariant?)")
		}
		return
	}
	if effect, detail := p.orderDependentEffect(rs); effect != nil {
		p.Reportf(rs.Pos(), "map iteration order is randomized, and this body %s (line %d); iterate sorted keys or annotate //farm:orderinvariant <reason>",
			detail, p.Fset.Position(effect.Pos()).Line)
	}
}

// orderDependentEffect scans a map-range body for the first construct
// whose outcome can depend on iteration order. Constructs proven
// commutative-and-associative are admitted without annotation:
//
//   - writes to variables declared inside the loop;
//   - integer/bitwise accumulation (n++, n += v, bits |= v) — commutative;
//   - boolean-literal latches (found = true);
//   - keyed writes into an outer map (out[k] = v) — each key written once;
//   - delete(m, k), len, cap, min, max builtins and type conversions;
//   - calls into package math (pure).
//
// Everything else — appends, float sums, plain assignments, early returns
// carrying loop data, arbitrary calls, channel ops — is flagged.
func (p *Pass) orderDependentEffect(rs *ast.RangeStmt) (node ast.Node, detail string) {
	local := func(e ast.Expr) bool { return p.declaredWithin(e, rs.Pos(), rs.End()) }

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if node != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if p.callIsOrderSafe(n) {
				return true
			}
			node, detail = n, "calls "+calleeName(n)
			return false
		case *ast.SendStmt:
			node, detail = n, "sends on a channel"
			return false
		case *ast.GoStmt:
			node, detail = n, "starts a goroutine"
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if exprMentions(r, rs.Key) || exprMentions(r, rs.Value) {
					node, detail = n, "returns a value picked by iteration order"
					return false
				}
			}
		case *ast.IncDecStmt:
			return true // counters commute
		case *ast.AssignStmt:
			if bad, why := p.assignIsOrderDependent(n, rs, local); bad {
				node, detail = n, why
				return false
			}
		}
		return true
	}
	ast.Inspect(rs.Body, visit)
	return node, detail
}

// assignIsOrderDependent classifies one assignment inside a map-range
// body.
func (p *Pass) assignIsOrderDependent(as *ast.AssignStmt, rs *ast.RangeStmt, local func(ast.Expr) bool) (bool, string) {
	for i, lhs := range as.Lhs {
		if ident, ok := lhs.(*ast.Ident); ok && ident.Name == "_" {
			continue
		}
		if as.Tok == token.DEFINE || local(lhs) {
			continue // loop-local state cannot leak order
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
			if p.isIntegerExpr(lhs) {
				continue // integer accumulation commutes exactly
			}
			return true, "accumulates a non-integer (order-sensitive rounding/concatenation) into outer state"
		case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			continue // bitwise ops commute
		case token.ASSIGN:
			if idx, isIdx := lhs.(*ast.IndexExpr); isIdx {
				// A keyed write is order-invariant when each iteration
				// writes its own slot (the index depends on the loop
				// element) or when the written value does not (all
				// iterations store the same thing).
				if keyedWriteIsOrderSafe(idx, rhs, rs) {
					continue
				}
				return true, "writes loop-dependent data to a fixed outer slot (last iteration wins)"
			}
			if isBoolLiteral(rhs) {
				continue // latch: found = true
			}
			return true, "assigns loop-dependent data to outer state"
		default:
			return true, "updates outer state order-sensitively"
		}
	}
	return false, ""
}

// keyedWriteIsOrderSafe reports whether out[idx] = rhs inside a map range
// is order-invariant: either each iteration writes its own slot (the
// index depends on the loop element), or the stored value does not.
func keyedWriteIsOrderSafe(idx *ast.IndexExpr, rhs ast.Expr, rs *ast.RangeStmt) bool {
	loopDep := func(e ast.Expr) bool {
		return e != nil && (exprMentions(e, rs.Key) || exprMentions(e, rs.Value))
	}
	if loopDep(idx.Index) {
		return true
	}
	return !loopDep(rhs)
}

// callIsOrderSafe admits builtins and calls known to be pure.
func (p *Pass) callIsOrderSafe(call *ast.CallExpr) bool {
	// Type conversions are pure.
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := p.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "len", "cap", "min", "max", "delete", "append":
				// append is judged by its enclosing assignment; the
				// call itself is admitted so `x = append(x, ...)` inside
				// an admitted assignment does not double-report. An
				// append into outer state is caught by assignIsOrderDependent.
				return true
			}
		}
	case *ast.SelectorExpr:
		if obj := p.TypesInfo.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "math" {
			return true // package math is pure
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "a function"
	}
}

// declaredWithin reports whether the root object of e was declared inside
// [lo, hi] (i.e. is loop-local).
func (p *Pass) declaredWithin(e ast.Expr, lo, hi token.Pos) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := p.TypesInfo.ObjectOf(x)
			if obj == nil {
				return false
			}
			return obj.Pos() >= lo && obj.Pos() <= hi
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

func (p *Pass) isIntegerExpr(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBoolLiteral(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && (id.Name == "true" || id.Name == "false")
}

// exprMentions reports whether expr syntactically references the same
// object as ident.
func exprMentions(expr, ident ast.Expr) bool {
	id, ok := ident.(*ast.Ident)
	if !ok || id == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if x, ok := n.(*ast.Ident); ok && x.Name == id.Name {
			found = true
		}
		return !found
	})
	return found
}
