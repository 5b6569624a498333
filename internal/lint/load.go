package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed, type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Deps lists the package's transitive dependencies (import paths),
	// used by Run to thread facts in dependency order.
	Deps []string
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Deps       []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// LoadPackages loads the packages matching patterns (run from dir) with
// full type information, using only the standard library: package
// metadata and compiled export data come from `go list -export`, so the
// loader works offline with no dependency on golang.org/x/tools.
//
// Only packages belonging to the main module are returned for analysis;
// their dependencies contribute export data for type checking.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Deps,Standard,Module,Error",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			cp := p
			targets = append(targets, &cp)
		}
	}
	sorted, err := topoSort(targets)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var out []*Package
	for _, t := range sorted {
		pkg, err := typecheckFiles(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.Deps = t.Deps
		out = append(out, pkg)
	}
	return out, nil
}

// topoSort orders the analysis targets so every in-module dependency
// precedes its dependents (alphabetical among ready packages, so the
// order — and hence fact-dependent diagnostics — is deterministic).
// Facts can then be threaded through one in-memory map.
func topoSort(targets []*listedPkg) ([]*listedPkg, error) {
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	inModule := make(map[string]bool, len(targets))
	for _, t := range targets {
		inModule[t.ImportPath] = true
	}
	done := make(map[string]bool, len(targets))
	out := make([]*listedPkg, 0, len(targets))
	for len(out) < len(targets) {
		progressed := false
		for _, t := range targets {
			if done[t.ImportPath] {
				continue
			}
			ready := true
			for _, d := range t.Deps {
				if inModule[d] && !done[d] {
					ready = false
					break
				}
			}
			if ready {
				done[t.ImportPath] = true
				out = append(out, t)
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("lint: import cycle among analysis targets")
		}
	}
	return out, nil
}

// newExportImporter returns a go/types importer that resolves imports
// from compiled export data files (as produced by `go list -export`).
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typecheckFiles parses and type-checks one package from its directory.
func typecheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		fn := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", fn, err)
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
	conf := types.Config{Importer: imp}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, firstErr)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Run loads patterns from dir and applies the full analyzer suite,
// threading facts between packages in dependency order, returning all
// findings (position-sorted, deduplicated — a cross-package collision
// is reported once even when many packages can see it).
func Run(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers()
	facts := make(map[string]FactSet, len(pkgs))
	var out []Diagnostic
	for _, pkg := range pkgs {
		deps := make(map[string]FactSet)
		for _, d := range pkg.Deps {
			if fs, ok := facts[d]; ok {
				deps[d] = fs
			}
		}
		ds, exported, err := RunAnalyzers(pkg, analyzers, deps)
		if err != nil {
			return nil, err
		}
		facts[pkg.Path] = exported
		out = append(out, ds...)
	}
	sortDiagnostics(out)
	return dedupeDiagnostics(out), nil
}
