package lint

// The fixture harness mirrors golang.org/x/tools/go/analysis/analysistest
// with the same on-disk layout (testdata/<analyzer>/src/<importpath>/) and
// the same `// want "regexp"` convention, built on the standard library
// only. Each analyzer's fixtures are small packages containing both
// positive cases (every reported line carries a want comment whose regexp
// must match the diagnostic) and negative cases (clean idioms that must
// not be reported). A fixture run fails on any unmatched expectation AND
// on any unexpected diagnostic, so the fixtures pin both directions of
// each analyzer's behavior.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNoDetermFixtures(t *testing.T)   { testAnalyzerFixtures(t, NoDeterm) }
func TestHotPathFixtures(t *testing.T)    { testAnalyzerFixtures(t, HotPath) }
func TestSeqTieFixtures(t *testing.T)     { testAnalyzerFixtures(t, SeqTie) }
func TestRngSaltFixtures(t *testing.T)    { testAnalyzerFixtures(t, RngSalt) }
func TestUnitCheckFixtures(t *testing.T)  { testAnalyzerFixtures(t, UnitCheck) }
func TestConfigFlowFixtures(t *testing.T) { testAnalyzerFixtures(t, ConfigFlow) }
func TestKindFlowFixtures(t *testing.T)   { testAnalyzerFixtures(t, KindFlow) }

// TestFloatValidFixtures runs configflow over the fixtures of the
// floatvalid analyzer it absorbed, with their expectations unchanged, so
// no float or Duration guard got looser in the fold.
func TestFloatValidFixtures(t *testing.T) { testFixtureTree(t, ConfigFlow, "floatvalid") }

// testAnalyzerFixtures loads every fixture package under
// testdata/<analyzer>/src, runs the analyzer over them in dependency
// order with facts threaded between packages (the same discipline as
// lint.Run), and checks the aggregated diagnostics against the `// want`
// expectations embedded in the sources. Aggregation matters for the
// fact-based analyzers: a cross-package collision is discovered while
// analyzing the importer but reported at a declaration in a dependency,
// so expectations can only be matched against the whole fixture tree.
func testAnalyzerFixtures(t *testing.T, a *Analyzer) { testFixtureTree(t, a, a.Name) }

// testFixtureTree is testAnalyzerFixtures over testdata/<tree>/src.
func testFixtureTree(t *testing.T, a *Analyzer, tree string) {
	srcRoot := filepath.Join("testdata", tree, "src")
	paths := fixturePackagePaths(t, srcRoot)
	if len(paths) == 0 {
		t.Fatalf("no fixture packages under %s", srcRoot)
	}
	loader := newFixtureLoader(t, srcRoot)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.load(path)
		if err != nil {
			t.Fatalf("load fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	deps := fixtureDeps(pkgs)

	facts := make(map[string]FactSet, len(pkgs))
	var diags []Diagnostic
	analyzed := make(map[string]bool, len(pkgs))
	for len(analyzed) < len(pkgs) {
		progressed := false
		for _, pkg := range pkgs { // paths are sorted, so the order is deterministic
			if analyzed[pkg.Path] {
				continue
			}
			ready := true
			for _, d := range deps[pkg.Path] {
				if !analyzed[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			depFacts := make(map[string]FactSet)
			for _, d := range deps[pkg.Path] {
				if fs, ok := facts[d]; ok {
					depFacts[d] = fs
				}
			}
			ds, exported, err := RunAnalyzers(pkg, []*Analyzer{a}, depFacts)
			if err != nil {
				t.Fatalf("run %s on fixture %s: %v", a.Name, pkg.Path, err)
			}
			facts[pkg.Path] = exported
			diags = append(diags, ds...)
			analyzed[pkg.Path] = true
			progressed = true
		}
		if !progressed {
			t.Fatalf("import cycle among %s fixtures", a.Name)
		}
	}
	sortDiagnostics(diags)
	diags = dedupeDiagnostics(diags)

	// The acceptance contract: every analyzer has at least one failing
	// fixture proving it fires.
	if totalWants := checkWants(t, pkgs, diags); totalWants == 0 {
		t.Fatalf("%s fixtures declare no // want expectations: the analyzer is never shown to fire", a.Name)
	}
}

// fixtureDeps maps each fixture package to its transitive sibling-fixture
// dependencies, derived from the parsed import declarations.
func fixtureDeps(pkgs []*Package) map[string][]string {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	direct := make(map[string][]string, len(pkgs))
	for _, pkg := range pkgs {
		seen := map[string]bool{}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				p := importPath(imp)
				if _, sibling := byPath[p]; sibling && !seen[p] {
					seen[p] = true
					direct[pkg.Path] = append(direct[pkg.Path], p)
				}
			}
		}
	}
	trans := make(map[string][]string, len(pkgs))
	var closure func(path string) []string
	closure = func(path string) []string {
		if c, ok := trans[path]; ok {
			return c
		}
		trans[path] = nil // break cycles defensively; typecheck already rejects them
		seen := map[string]bool{}
		var out []string
		for _, d := range direct[path] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
			for _, dd := range closure(d) {
				if !seen[dd] {
					seen[dd] = true
					out = append(out, dd)
				}
			}
		}
		sort.Strings(out)
		trans[path] = out
		return out
	}
	for _, pkg := range pkgs {
		closure(pkg.Path)
	}
	return trans
}

// fixturePackagePaths returns the slash-separated import paths of every
// directory under srcRoot containing .go files, sorted.
func fixturePackagePaths(t *testing.T, srcRoot string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(srcRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", srcRoot, err)
	}
	sort.Strings(out)
	// Deduplicate (one entry per .go file so far).
	uniq := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// fixtureLoader type-checks fixture packages, resolving imports first
// against sibling fixture directories (so a fixture "consumer" can import
// a fixture "trace") and then against compiled stdlib export data.
type fixtureLoader struct {
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func newFixtureLoader(t *testing.T, srcRoot string) *fixtureLoader {
	t.Helper()
	fset := token.NewFileSet()
	exports := resolveStdExports(t, externalImports(t, srcRoot))
	return &fixtureLoader{
		srcRoot: srcRoot,
		fset:    fset,
		std:     newExportImporter(fset, exports),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer over fixtures-then-stdlib.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one fixture package (memoized).
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle at %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// externalImports collects every import path referenced by fixture files
// that does not resolve to a sibling fixture directory (i.e. stdlib
// imports needing compiled export data).
func externalImports(t *testing.T, srcRoot string) []string {
	t.Helper()
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(srcRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, perr := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if perr != nil {
			return perr
		}
		for _, imp := range f.Imports {
			path := importPath(imp)
			dir := filepath.Join(srcRoot, filepath.FromSlash(path))
			if fi, serr := os.Stat(dir); serr == nil && fi.IsDir() {
				continue // sibling fixture
			}
			seen[path] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan fixture imports: %v", err)
	}
	out := make([]string, 0, len(seen))
	for p := range seen { //farm:orderinvariant keys are sorted before use
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// stdExportCache memoizes `go list -export` runs across fixture tests.
var stdExportCache struct {
	sync.Mutex
	m map[string]string
}

// resolveStdExports maps stdlib import paths (plus their dependencies) to
// compiled export-data files via `go list -export`, memoized per process.
func resolveStdExports(t *testing.T, paths []string) map[string]string {
	t.Helper()
	stdExportCache.Lock()
	defer stdExportCache.Unlock()
	if stdExportCache.m == nil {
		stdExportCache.m = make(map[string]string)
	}
	var missing []string
	for _, p := range paths {
		if _, ok := stdExportCache.m[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		args := append([]string{"list", "-e", "-export", "-json=ImportPath,Export", "-deps"}, missing...)
		cmd := exec.Command("go", args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go list -export %v: %v\n%s", missing, err, stderr.String())
		}
		dec := json.NewDecoder(&stdout)
		for {
			var p struct {
				ImportPath string
				Export     string
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("go list output: %v", err)
			}
			if p.Export != "" {
				stdExportCache.m[p.ImportPath] = p.Export
			}
		}
	}
	out := make(map[string]string, len(stdExportCache.m))
	for k, v := range stdExportCache.m { //farm:orderinvariant building a lookup map; never iterated for output
		out[k] = v
	}
	return out
}

// wantRe matches the trailing `want` clause of a fixture comment;
// wantArgRe extracts each quoted regexp from the clause — either a Go
// interpreted string or a backquoted raw string (handy when the pattern
// needs backslash escapes like `\(Ms\)`).
var (
	wantRe    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

type wantExpectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkWants matches the aggregated diagnostics of a fixture tree
// against the `// want` comments in all of its packages, reporting both
// unmatched expectations and unexpected diagnostics. It returns the
// number of expectations declared.
func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) int {
	t.Helper()
	expect := map[string][]*wantExpectation{} // "file:line" -> expectations
	total := 0
	for _, pkg := range pkgs {
		total += collectWants(t, pkg, expect)
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range expect[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	keys := make([]string, 0, len(expect))
	for k := range expect { //farm:orderinvariant keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range expect[k] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", k, w.raw)
			}
		}
	}
	return total
}

// collectWants parses one package's `// want` comments into expect.
func collectWants(t *testing.T, pkg *Package, expect map[string][]*wantExpectation) int {
	t.Helper()
	total := 0
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					expect[key] = append(expect[key], &wantExpectation{re: re, raw: raw})
					total++
				}
			}
		}
	}
	return total
}
