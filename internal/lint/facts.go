package lint

// Facts are how farmlint sees across package boundaries. Some
// invariants cannot be decided from one type-checked package — whether
// two packages salt their RNG streams with the same constant, whether a
// config knob declared in internal/topology is ever read by the engine,
// whether a trace kind is emitted anywhere at all — so each analyzer may
// export one *package fact*: a small JSON-marshalable summary of the
// package (its salt constants, its config fields, the kinds it emits)
// that flows to every package importing it.
//
// The driver (lint.Run, and the fixture harness the same way) analyzes
// packages in dependency order and threads facts in memory: each
// package sees the facts of its whole in-module import closure.
//
// Fact flow follows import edges only: an analyzer that needs a
// whole-program view (configflow's dead-knob check, kindflow's dead-kind
// check) aggregates in a *sink* package — one whose import closure spans
// the full simulator, marked //farm:factsink — rather than pretending
// any single unit can see packages it does not import.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactSet maps analyzer name -> that analyzer's JSON-encoded package
// fact, for one package.
type FactSet map[string]json.RawMessage

// ExportFact records v as this package's fact for the running analyzer.
// At most one fact per (package, analyzer); the last export wins.
func (p *Pass) ExportFact(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Facts are produced by the analyzers themselves from plain
		// structs; a marshal failure is a programming error in the suite.
		panic(fmt.Sprintf("lint: %s: marshal fact: %v", p.Analyzer.Name, err))
	}
	p.exported[p.Analyzer.Name] = data
}

// ImportFact decodes the named dependency's fact for the running
// analyzer into out, reporting whether one was found.
func (p *Pass) ImportFact(pkgPath string, out any) bool {
	fs, ok := p.DepFacts[pkgPath]
	if !ok {
		return false
	}
	raw, ok := fs[p.Analyzer.Name]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// FactProviders returns, sorted, the dependency import paths that
// exported a fact for the running analyzer. Iterating providers in this
// order keeps cross-package diagnostics deterministic.
func (p *Pass) FactProviders() []string {
	var out []string
	for path, fs := range p.DepFacts { //farm:orderinvariant keys are sorted before use
		if _, ok := fs[p.Analyzer.Name]; ok {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}
