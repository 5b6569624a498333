package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// UnitCheck is shallow dimensional analysis driven by the repo's naming
// convention. The simulator threads hours, milliseconds, MB/s, bytes,
// and dimensionless ratios through the same float64/int64 types; the
// only machine-visible record of a quantity's unit is its name suffix
// (*Hours, *Ms, *MBps, *Bytes, *Ratio, *PerHour). Rashmi et al.'s
// warehouse study (PAPERS.md) is the cautionary tale: one mis-accounted
// bandwidth term invalidates a whole repair-traffic evaluation, and a
// `windowMs + detectHours` compiles without complaint.
//
// The analyzer assigns a unit to every named quantity (field, local,
// parameter, constant — through parentheses, unary sign, and numeric
// conversions, but deliberately not through arithmetic) and checks:
//
//   - add/subtract/compare (including += / -= and plain assignment):
//     both sides' units, when known, must agree;
//   - multiply: cross-unit products must be recognized conversions
//     (rate × time: PerHour × Hours; scaling: Ratio × anything);
//   - divide: same unit (a ratio) is fine; de-scaling by a Ratio is
//     fine; anything else cross-unit must go through a named helper
//     (disk.RebuildHours, not ad-hoc `bytes / mbps` with loose 1e6s);
//   - calls: an argument with a known unit must match the unit named by
//     the parameter it binds to.
//
// Deliberate dimension changes annotate the line with
// //farm:unitless <why>.
var UnitCheck = &Analyzer{
	Name: "unitcheck",
	Doc:  "unit-suffixed quantities (*Hours, *Ms, *MBps, *Bytes, *Ratio, *PerHour) never mix across units",
	Run:  runUnitCheck,
}

// unitSuffixes in match order: longer suffixes first so PerHour wins
// over Hours.
var unitSuffixes = []string{"PerHour", "Hours", "MBps", "Bytes", "Ratio", "Ms"}

// unitOfName maps an identifier to its declared unit, or "". A suffix
// matches on a word boundary — camelCase (GroupBytes, windowMs,
// p99Hours) or the end of an acronym (MTTFHours) — or as the whole
// lowercased name (bytes, mbps, hours, ms, ratio — the convention for
// short parameter names). The two-letter "Ms" suffix only matches after
// a lowercase/digit boundary: after an uppercase rune it is far more
// likely a plural acronym (VMs) than milliseconds.
func unitOfName(name string) string {
	for _, suf := range unitSuffixes {
		if name == strings.ToLower(suf) {
			return suf
		}
		if len(name) > len(suf) && strings.HasSuffix(name, suf) {
			prev := rune(name[len(name)-len(suf)-1])
			if unicode.IsLower(prev) || unicode.IsDigit(prev) || (unicode.IsUpper(prev) && len(suf) > 2) {
				return suf
			}
		}
	}
	return ""
}

func runUnitCheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				pass.checkUnitBinary(n)
			case *ast.AssignStmt:
				pass.checkUnitAssign(n)
			case *ast.CallExpr:
				pass.checkUnitCall(n)
			case *ast.KeyValueExpr:
				pass.checkUnitKeyValue(n)
			}
			return true
		})
	}
	return nil
}

// unitOf derives the unit of an expression from the name of the
// variable, field, or constant it denotes. Propagation is deliberately
// shallow — arithmetic results have no inferred unit — so every finding
// points at a direct cross-unit use of two named quantities.
func (p *Pass) unitOf(e ast.Expr) string {
	e = unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return p.unitOfObject(e)
	case *ast.SelectorExpr:
		return p.unitOfObject(e.Sel)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return p.unitOf(e.X)
		}
	case *ast.CallExpr:
		// A numeric conversion keeps the unit: float64(groupBytes) is
		// still bytes.
		if tv, ok := p.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return p.unitOf(e.Args[0])
		}
	case *ast.BinaryExpr:
		// Scaling by a bare compile-time number keeps the dimension
		// family: MTTFHours*3600 is still time, PendingBytes/1e6 is
		// still data. (The factor may change the *scale* — hours to
		// seconds — which is exactly why mixing the result with another
		// family must go through a named conversion helper.)
		if e.Op == token.MUL {
			if p.isBareConst(e.Y) {
				return p.unitOf(e.X)
			}
			if p.isBareConst(e.X) {
				return p.unitOf(e.Y)
			}
		}
		if e.Op == token.QUO && p.isBareConst(e.Y) {
			return p.unitOf(e.X)
		}
	}
	return ""
}

// isBareConst reports whether e is a compile-time constant that is not a
// reference to a unit-suffixed named constant (a bare scale factor).
func (p *Pass) isBareConst(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Value != nil && p.unitOf(e) == ""
}

// unitOfObject resolves an identifier to a var/const and maps its name;
// only numeric objects carry units (a struct field that *contains*
// per-unit stats is not itself a quantity).
func (p *Pass) unitOfObject(id *ast.Ident) string {
	obj := p.TypesInfo.Uses[id]
	if obj == nil {
		obj = p.TypesInfo.Defs[id]
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
	default:
		return ""
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
		return ""
	}
	return unitOfName(obj.Name())
}

// unitlessAt reports whether the position's line carries //farm:unitless.
func (p *Pass) unitlessAt(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	_, ok := p.directiveAt(position.Line, position.Filename, dirUnitless)
	return ok
}

func (p *Pass) checkUnitBinary(be *ast.BinaryExpr) {
	ux, uy := p.unitOf(be.X), p.unitOf(be.Y)
	if ux == "" || uy == "" || ux == uy {
		return
	}
	switch be.Op {
	case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		if !p.unitlessAt(be.OpPos) {
			p.Reportf(be.OpPos, "mixing units: %s %s %s (%s vs %s): convert explicitly or annotate //farm:unitless",
				exprText(be.X), be.Op, exprText(be.Y), ux, uy)
		}
	case token.MUL:
		if allowedProduct(ux, uy) {
			return
		}
		if !p.unitlessAt(be.OpPos) {
			p.Reportf(be.OpPos, "cross-unit product %s * %s (%s × %s) is not a recognized conversion: use a named helper or annotate //farm:unitless",
				exprText(be.X), exprText(be.Y), ux, uy)
		}
	case token.QUO:
		if uy == "Ratio" {
			return // de-scaling
		}
		if !p.unitlessAt(be.OpPos) {
			p.Reportf(be.OpPos, "cross-unit quotient %s / %s (%s ÷ %s) is not a recognized conversion: use a named helper (e.g. disk.RebuildHours) or annotate //farm:unitless",
				exprText(be.X), exprText(be.Y), ux, uy)
		}
	}
}

// allowedProduct recognizes the conversions the simulator legitimately
// writes inline: scaling by a dimensionless ratio, and rate × time.
func allowedProduct(a, b string) bool {
	if a == "Ratio" || b == "Ratio" {
		return true
	}
	if (a == "PerHour" && b == "Hours") || (a == "Hours" && b == "PerHour") {
		return true
	}
	return false
}

func (p *Pass) checkUnitAssign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
	default:
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return // tuple assignment from a call: no per-element pairing
	}
	for i := range as.Lhs {
		ul, ur := p.unitOf(as.Lhs[i]), p.unitOf(as.Rhs[i])
		if ul == "" || ur == "" || ul == ur {
			continue
		}
		if p.unitlessAt(as.TokPos) {
			continue
		}
		p.Reportf(as.TokPos, "assigning %s (%s) to %s (%s): convert explicitly or annotate //farm:unitless",
			exprText(as.Rhs[i]), ur, exprText(as.Lhs[i]), ul)
	}
}

// checkUnitCall matches each argument's unit against the unit named by
// the parameter it binds to, using the callee's declared parameter
// names (available through export data for cross-package calls too).
func (p *Pass) checkUnitCall(call *ast.CallExpr) {
	var fn *types.Func
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = p.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = p.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		pu := unitOfName(params.At(pi).Name())
		au := p.unitOf(arg)
		if pu == "" || au == "" || pu == au {
			continue
		}
		if p.unitlessAt(arg.Pos()) {
			continue
		}
		p.Reportf(arg.Pos(), "passing %s (%s) to parameter %s (%s) of %s: convert explicitly or annotate //farm:unitless",
			exprText(arg), au, params.At(pi).Name(), pu, fn.Name())
	}
}

// checkUnitKeyValue matches a keyed struct-literal element's value unit
// against the unit named by the field (Config literals are where most
// quantities cross package boundaries).
func (p *Pass) checkUnitKeyValue(kv *ast.KeyValueExpr) {
	key, ok := kv.Key.(*ast.Ident)
	if !ok {
		return
	}
	if _, isField := p.TypesInfo.Uses[key].(*types.Var); !isField {
		return // map literal with an identifier key, not a struct field
	}
	fu := unitOfName(key.Name)
	vu := p.unitOf(kv.Value)
	if fu == "" || vu == "" || fu == vu {
		return
	}
	if p.unitlessAt(kv.Value.Pos()) {
		return
	}
	p.Reportf(kv.Value.Pos(), "assigning %s (%s) to field %s (%s): convert explicitly or annotate //farm:unitless",
		exprText(kv.Value), vu, key.Name, fu)
}

// exprText renders a compact form of an expression for diagnostics.
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}
