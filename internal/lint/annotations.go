package lint

import (
	"go/ast"
	"strings"
)

// Annotation directives. A directive is a line comment of the form
// //farm:<name> <justification>, attached either to the statement it
// permits (same line or the line directly above) or, for hotpath, to the
// function declaration's doc comment. The justification text is free-form
// but required: an annotation without a reason is itself a finding.
const (
	// dirHotPath marks a function bound by the hot-path contract.
	dirHotPath = "farm:hotpath"
	// dirOrderInvariant justifies a map iteration whose effects are
	// order-invariant (e.g. results are sorted before use).
	dirOrderInvariant = "farm:orderinvariant"
	// dirWallClock justifies a wall-clock read (reporting-only timing
	// outside the simulation's virtual clock).
	dirWallClock = "farm:wallclock"
	// dirUnitless justifies arithmetic mixing unit-suffixed quantities
	// (e.g. a deliberate dimension change the naming can't express).
	dirUnitless = "farm:unitless"
	// dirNoCausality justifies a trace.Kind with no CheckCausality rule
	// (a pure marker event with no ordering contract).
	dirNoCausality = "farm:nocausality"
	// dirAnyValue justifies a numeric config field whose whole domain is
	// valid, exempting it from the Validate-coverage requirement.
	dirAnyValue = "farm:anyvalue"
	// dirReserved justifies a config field that is declared and validated
	// but intentionally not yet read (a forward-looking knob).
	dirReserved = "farm:reserved"
	// dirFactSink marks a package whose import closure spans the full
	// simulator; whole-program fact aggregations (configflow's dead-knob
	// check, kindflow's dead-kind check) fire only in sink packages.
	dirFactSink = "farm:factsink"
)

// annotations indexes every //farm:* directive of one package by file and
// line.
type annotations struct {
	// byLine maps filename -> line -> directive text (without "//").
	byLine map[string]map[int]string
}

// annotationsOf builds (once) and returns the package's annotation index.
func (p *Pass) annotationsOf() *annotations {
	if p.ann != nil {
		return p.ann
	}
	a := &annotations{byLine: make(map[string]map[int]string)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "farm:") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = text
			}
		}
	}
	p.ann = a
	return a
}

// directiveAt reports the //farm:<name> directive governing the node
// starting at pos: on the same line or the line immediately above.
// It returns the justification text and whether the directive was found.
func (p *Pass) directiveAt(pos int, filename, name string) (string, bool) {
	a := p.annotationsOf()
	lines := a.byLine[filename]
	if lines == nil {
		return "", false
	}
	for _, l := range [2]int{pos, pos - 1} {
		if text, ok := lines[l]; ok {
			if rest, ok := cutDirective(text, name); ok {
				return rest, true
			}
		}
	}
	return "", false
}

// cutDirective splits "farm:name justification" into its justification if
// the directive name matches.
func cutDirective(text, name string) (string, bool) {
	if !strings.HasPrefix(text, name) {
		return "", false
	}
	rest := text[len(name):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. farm:hotpathological
	}
	return strings.TrimSpace(rest), true
}

// packageHasDirective reports whether any file of the package carries
// the named directive anywhere (used for package-scoped markers like
// //farm:factsink).
func (p *Pass) packageHasDirective(name string) bool {
	a := p.annotationsOf()
	for _, lines := range a.byLine { //farm:orderinvariant existence check only; no order-dependent effects
		for _, text := range lines { //farm:orderinvariant existence check only; no order-dependent effects
			if _, ok := cutDirective(text, name); ok {
				return true
			}
		}
	}
	return false
}

// funcHasDirective reports whether the function declaration's doc comment
// carries the named directive.
func funcHasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if _, ok := cutDirective(text, name); ok {
			return true
		}
	}
	return false
}
