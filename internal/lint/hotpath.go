package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// HotPath makes the PR-1 zero-alloc guarantee structural. Functions whose
// doc comment carries //farm:hotpath (the engine step, placement lookup,
// GF(256) kernels, FailDisk — the paths gated today by AllocsPerRun
// tests) must not contain constructs that allocate or capture:
//
//   - calls into fmt or errors (Sprintf/Errorf/New all allocate; hot
//     paths return sentinel errors declared at package level);
//   - function literals (closure capture heap-allocates the environment);
//   - defer and go statements;
//   - make of a map or channel, or map/chan composite literals;
//   - append whose destination is not the slice being appended to
//     (x = append(x, ...) reuses a preallocated buffer and amortizes;
//     y := append(x, ...) builds a fresh escaping slice);
//   - calls into container/heap, and the import itself in any file that
//     declares hot functions (heap.Push/Pop box every element through
//     interface{}; the kernel uses an inline implicit heap of concrete
//     entries instead);
//   - passing a concrete value where the callee takes an empty interface
//     (the conversion boxes: one heap allocation per call for any value
//     that doesn't fit an interface word).
//
// The benchmark gates remain the ground truth for allocation counts;
// this analyzer stops regressions from being written in the first place.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs in //farm:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		hot := false
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasDirective(fd, dirHotPath) {
				continue
			}
			hot = true
			pass.checkHotFunc(fd)
		}
		if !hot {
			continue
		}
		// The import ban is per-file: a file declaring hot functions has no
		// business depending on container/heap at all — the temptation to
		// "just heap.Fix this one path" is exactly the regression the arena
		// kernel removed.
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "container/heap" {
				pass.Reportf(imp.Pos(), "file declares //farm:hotpath functions but imports container/heap (boxes every element through interface{}); use an inline implicit heap over concrete entries")
			}
		}
	}
	return nil
}

// allocPkgs are packages whose every call allocates on the way out.
var allocPkgs = map[string]string{
	"fmt":            "formats into a fresh string/interface",
	"errors":         "allocates a new error; declare sentinel errors at package level",
	"container/heap": "boxes every element through interface{}; use an inline implicit heap",
}

func (p *Pass) checkHotFunc(fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// A panic argument is a crash path, not a hot path:
			// `panic(fmt.Sprintf(...))` on a corruption check never runs
			// in a healthy simulation, so its formatting is exempt.
			if fun, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := p.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
			p.checkHotCall(name, n)
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "hot path %s captures a closure (heap-allocates its environment)", name)
			return false
		case *ast.DeferStmt:
			p.Reportf(n.Pos(), "hot path %s defers (allocates a defer record on some paths)", name)
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "hot path %s starts a goroutine", name)
		case *ast.CompositeLit:
			if p.isMapOrChan(p.typeOf(n)) {
				p.Reportf(n.Pos(), "hot path %s builds a map/chan literal (allocates)", name)
			}
		case *ast.AssignStmt:
			p.checkHotAppend(name, n)
		}
		return true
	})
}

func (p *Pass) checkHotCall(name string, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj := p.TypesInfo.Uses[fun.Sel]
		if obj != nil && obj.Pkg() != nil {
			if why, bad := allocPkgs[obj.Pkg().Path()]; bad {
				p.Reportf(call.Pos(), "hot path %s calls %s.%s (%s)", name, obj.Pkg().Name(), fun.Sel.Name, why)
				return // the call is already condemned; boxing into it is moot
			}
		}
	case *ast.Ident:
		if obj, ok := p.TypesInfo.Uses[fun].(*types.Builtin); ok {
			if obj.Name() == "make" && len(call.Args) > 0 && p.isMapOrChan(p.typeOf(call.Args[0])) {
				p.Reportf(call.Pos(), "hot path %s makes a map/chan (always allocates)", name)
			}
			return // no other builtin boxes its arguments
		}
	}
	p.checkHotBoxing(name, call)
}

// checkHotBoxing flags arguments that box: a concrete value passed where
// the callee declares an empty-interface parameter is converted to an
// interface at the call site, which heap-allocates for anything wider
// than a pointer word. Interface-typed arguments pass through unboxed and
// untyped nil converts for free; both are exempt.
func (p *Pass) checkHotBoxing(name string, call *ast.CallExpr) {
	sig := p.callSignature(call)
	if sig == nil || call.Ellipsis.IsValid() {
		return // conversion, builtin, or slice-forwarding call
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			param = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !isEmptyInterface(param) {
			continue
		}
		at := p.typeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue
		}
		p.Reportf(arg.Pos(), "hot path %s boxes %s into an interface{} argument (allocates per call); take a concrete parameter type", name, at.String())
	}
}

// callSignature resolves the signature of a call's callee, or nil for
// type conversions and builtins.
func (p *Pass) callSignature(call *ast.CallExpr) *types.Signature {
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok {
		if tv.IsType() {
			return nil
		}
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// checkHotAppend flags appends whose destination differs from the slice
// appended to: `y := append(x, ...)` or `s.out = append(s.buf, ...)`
// grows a fresh escaping slice, while the reuse idiom
// `x = append(x, ...)` (or `x = append(x[:0], ...)`) amortizes into a
// preallocated buffer.
func (p *Pass) checkHotAppend(name string, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := p.TypesInfo.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		dst := types.ExprString(as.Lhs[i])
		src := call.Args[0]
		if se, ok := src.(*ast.SliceExpr); ok {
			src = se.X // append(x[:0], ...) reuses x's backing array
		}
		if types.ExprString(src) != dst {
			p.Reportf(call.Pos(), "hot path %s appends into a different slice (%s -> %s): fresh backing array escapes; reuse the destination buffer", name, types.ExprString(src), dst)
		}
	}
}

func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (p *Pass) isMapOrChan(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return true
	}
	return false
}

func isEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.NumMethods() == 0
}
