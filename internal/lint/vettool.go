package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
)

// This file implements the `go vet -vettool` driver protocol (the same
// wire protocol golang.org/x/tools/go/analysis/unitchecker speaks),
// from scratch on the standard library, so farmlint plugs into
// `go vet -vettool=$(bin)/farmlint ./...` without any module downloads:
//
//   - `farmlint -V=full` prints a version line the go command hashes
//     into its action cache key;
//   - `farmlint -flags` prints the JSON list of analyzer flags (none);
//   - `farmlint <unit>.cfg` analyzes one package unit described by the
//     JSON config the go command writes, prints findings in
//     file:line:col form, writes the unit's .vetx facts file (the
//     merged facts of the unit and its import closure — see facts.go),
//     and exits 2 when there are findings. Dependency units arrive with
//     VetxOnly set: the suite still runs to compute facts, but
//     diagnostics are suppressed (they surface when the dependency is
//     itself a vet target).

// vetConfig mirrors the JSON the go command hands a vet tool for each
// package unit. Unknown fields are ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// IsVetConfig reports whether arg names a unit-checker config file.
func IsVetConfig(arg string) bool { return filepath.Ext(arg) == ".cfg" }

// RunVetUnit analyzes one `go vet` package unit. It returns the exit
// code the tool should finish with: 0 (clean), 1 (tool error, message on
// stderr), or 2 (findings printed to stderr).
func RunVetUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "farmlint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "farmlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// writeVetx persists facts as the unit's cached action output. The
	// go command demands the file exist even when there is nothing to
	// say, so failures to produce facts still write an empty payload.
	writeVetx := func(packages map[string]FactSet) bool {
		if cfg.VetxOutput == "" {
			return true
		}
		payload, err := encodeFacts(packages)
		if err == nil {
			err = os.WriteFile(cfg.VetxOutput, payload, 0o666)
		}
		if err != nil {
			fmt.Fprintf(stderr, "farmlint: %v\n", err)
			return false
		}
		return true
	}

	// Standard-library units carry no farmlint facts; skip the (large)
	// typecheck instead of analyzing the stdlib on every vet run.
	if cfg.Standard[cfg.ImportPath] {
		if !writeVetx(nil) {
			return 1
		}
		return 0
	}

	// Merge the facts of every dependency's .vetx. Each file already
	// holds its unit's whole import closure, so the union is the
	// transitive fact view for this unit.
	depFacts := make(map[string]FactSet)
	for _, vetx := range cfg.PackageVetx { //farm:orderinvariant keyed merge; consumers sort before use
		for path, fs := range decodeFactsFile(vetx) { //farm:orderinvariant keyed merge; consumers sort before use
			depFacts[path] = fs
		}
	}

	fset := token.NewFileSet()
	// Resolve each source-level import path through the unit's ImportMap
	// (vendoring, test variants) before consulting the export data files
	// the go command compiled for this unit's dependencies.
	exports := make(map[string]string, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for from, to := range cfg.ImportMap { //farm:orderinvariant keyed writes, one per source path
		if f, ok := cfg.PackageFile[to]; ok {
			exports[from] = f
		}
	}
	imp := newExportImporter(fset, exports)

	pkg, err := typecheckFiles(fset, imp, cfg.ImportPath, "", cfg.GoFiles)
	if err != nil {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			// Pass dependency facts through so a broken leaf does not
			// sever fact flow for the rest of the graph.
			if !writeVetx(depFacts) {
				return 1
			}
			return 0
		}
		fmt.Fprintf(stderr, "farmlint: %v\n", err)
		return 1
	}
	diags, exported, err := RunAnalyzers(pkg, Analyzers(), depFacts)
	if err != nil {
		fmt.Fprintf(stderr, "farmlint: %v\n", err)
		return 1
	}
	merged := depFacts
	merged[cleanPkgPath(cfg.ImportPath)] = exported
	if !writeVetx(merged) {
		return 1
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s\n", d)
	}
	return 2
}

// PrintVersion implements the -V=full handshake: the go command hashes
// this line into its action-cache key, so it must change when the tool's
// behavior does.
func PrintVersion(w io.Writer) {
	fmt.Fprintf(w, "farmlint version %s\n", Version)
}

// Version identifies the analyzer suite for the go command's cache.
// Bump it whenever an analyzer's behavior changes, or stale clean
// results may be served from the vet action cache. 2.0.0 is the
// fact-exporting suite: the .vetx payload format is keyed on this
// string too, so older cached facts read as empty rather than lying.
// 2.1.0 is the seven-analyzer suite, with configflow owning the float
// rule.
const Version = "2.1.0"

// PrintFlags implements the -flags handshake: the JSON list of
// analyzer flags this tool accepts (none — the suite is not
// configurable from the vet command line).
func PrintFlags(w io.Writer) {
	fmt.Fprintln(w, "[]")
}
