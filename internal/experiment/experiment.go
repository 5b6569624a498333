// Package experiment defines one reproduction per table and figure of the
// paper's evaluation (§3). Each experiment sweeps the same parameters the
// authors swept and emits the rows/series they report, via
// internal/report tables.
//
// Experiments accept an Options struct so the same definitions serve three
// consumers: cmd/farmsim (paper scale), the test suite (miniature scale),
// and bench_test.go (one benchmark per table/figure).
package experiment

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/report"
)

// Options tunes an experiment run.
type Options struct {
	// Runs is the Monte Carlo trajectories per data point (the paper
	// uses 100–1000).
	Runs int
	// BaseSeed makes campaigns reproducible.
	BaseSeed uint64
	// Workers caps parallel runs; 0 = GOMAXPROCS.
	Workers int
	// Scale multiplies the paper's data sizes (1.0 = the full 2 PB
	// system; 0.1 = a 0.2 PB miniature with the same dynamics). Sweeps
	// over system size (Figure 8) scale their sweep points.
	Scale float64
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Telemetry, when non-nil, receives live campaign progress and the
	// merged metrics registry from every Monte Carlo data point (served
	// over HTTP by cmd/farmsim's -telemetry flag). Campaigns observed by
	// a telemetry hub bypass the in-process memoization cache so their
	// progress counters stay truthful; results remain byte-identical.
	Telemetry *obs.Campaign
	// Scenario, when non-empty, is a JSON patch (core.PatchConfig)
	// applied to every data point's config: cmd/farmsim's -scenario
	// file, so any paper figure can be re-run under user load, a
	// throttle policy or a maintenance schedule. Only the keys written
	// change; the experiment's other settings stay.
	Scenario []byte
}

// patch applies o.Scenario to one data point's config. Called before
// the memoization key is computed, so cached results are keyed by what
// actually ran.
func (o Options) patch(cfg core.Config) (core.Config, error) {
	if len(o.Scenario) == 0 {
		return cfg, nil
	}
	return core.PatchConfig(cfg, o.Scenario)
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// baseConfig returns the paper's Table 2 system scaled by o.Scale.
func (o Options) baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = int64(float64(2*disk.PB) * o.Scale)
	if cfg.TotalDataBytes < cfg.GroupBytes {
		cfg.TotalDataBytes = cfg.GroupBytes
	}
	return cfg
}

// mcCache memoizes Monte Carlo campaigns within a process: Figures 4(a)
// and 4(b) share one parameter sweep, and repeated CLI ids in a single
// invocation cost nothing extra. Results are deterministic in (cfg, runs,
// seed), so caching cannot change any output.
var mcCache sync.Map // string -> core.Result

// monteCarlo runs one data point, memoized.
func (o Options) monteCarlo(cfg core.Config) (core.Result, error) {
	cfg.Hook = nil // hooks are never set on experiment configs; be safe
	cfg.Obs = nil  // per-run observers cannot span a campaign
	cfg, err := o.patch(cfg)
	if err != nil {
		return core.Result{}, err
	}
	key := fmt.Sprintf("%+v|runs=%d|seed=%d", cfg, o.Runs, o.BaseSeed)
	if o.Telemetry == nil {
		if v, ok := mcCache.Load(key); ok {
			return v.(core.Result), nil
		}
	}
	res, err := core.MonteCarlo(cfg, core.MonteCarloOptions{
		Runs:      o.Runs,
		BaseSeed:  o.BaseSeed,
		Workers:   o.Workers,
		Telemetry: o.Telemetry,
	})
	if err != nil {
		return res, err
	}
	if o.Telemetry == nil {
		mcCache.Store(key, res)
	}
	return res, nil
}

// Experiment reproduces one table or figure.
type Experiment struct {
	// ID is the paper label: "table1", "fig4a", ...
	ID string
	// Title describes the content.
	Title string
	// Cost hints at relative runtime: "static", "cheap", "moderate",
	// "heavy".
	Cost string
	// Run executes the experiment.
	Run func(Options) ([]*report.Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment for a paper label.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in paper order; extensions sharing a
// paper-order slot (all ext-*) follow in lexical ID order. Iterating the
// registry map directly and sorting with sort.Slice was subtly
// nondeterministic: every ext-* experiment compares equal under
// paperOrder, so their relative order in `farmsim list` leaked the
// randomized map iteration order. Sorted key collection plus a stable
// sort pins the output byte-for-byte.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry { //farm:orderinvariant keys are sorted before use
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	sort.SliceStable(out, func(i, j int) bool { return paperOrder(out[i].ID) < paperOrder(out[j].ID) })
	return out
}

// paperOrder sorts experiments as they appear in the paper; extensions
// (ext-*) follow in lexical order.
func paperOrder(id string) int {
	order := []string{"table1", "table2", "fig3", "fig4a", "fig4b", "fig5", "fig6", "table3", "fig7", "fig8a", "fig8b", "ext-adaptive", "ext-bigfleet", "ext-elastic", "ext-failslow", "ext-faults", "ext-forensics", "ext-network", "ext-smart"}
	for i, v := range order {
		if v == id {
			return i
		}
	}
	return len(order)
}

// gb is shorthand for byte sizes in tables.
func gb(n int64) int64 { return n * disk.GB }

// fmtGB renders a group size label.
func fmtGB(bytes int64) string {
	return fmt.Sprintf("%d GB", bytes/disk.GB)
}
