// Package experiment defines one reproduction per table and figure of the
// paper's evaluation (§3). Each experiment sweeps the same parameters the
// authors swept and emits the rows/series they report, via
// internal/report tables.
//
// A figure that sweeps parameters is a declaration, not a loop: a base
// config, an ordered list of axes, and the columns each data point fills.
// An axis is a header plus labelled points, and each point is a
// func(*core.Config) that sets the swept parameter. A column is a header
// plus a func(cfg, res) that formats one cell from the config that ran
// (after Options.Scenario patched it) and its Monte Carlo result.
// Options.sweep walks the axes' cross product (first axis outermost) and
// emits one row per point, the axis labels first; Options.grid lays a
// second axis across the columns instead, with one cell per point. To add
// a sweep, declare its base, axes and columns in a run function and add
// it to the experiments registry below.
//
// Experiments accept an Options struct so the same definitions serve three
// consumers: cmd/farmsim (paper scale), the test suite (miniature scale),
// and bench_test.go (one benchmark per table/figure).
package experiment

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/metrics"
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
	o.setData(&cfg, float64(2*disk.PB))
	return cfg
}

// setData sizes cfg's user data: bytes at the paper's scale times
// o.Scale, never below one group of cfg.GroupBytes.
func (o Options) setData(cfg *core.Config, bytes float64) {
	cfg.TotalDataBytes = max(int64(bytes*o.Scale), cfg.GroupBytes)
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

// point is one value of a swept parameter: its label and the config
// change it makes (nil leaves the config as it is).
type point struct {
	label string
	set   func(*core.Config)
}

// axis is one swept parameter. Its name heads the column of point
// labels; an unnamed axis adds no label column, for a sweep whose rows
// are told apart by a derived column (ext-bigfleet's drive count).
type axis struct {
	name   string
	points []point
}

// values builds an axis over xs, labelling each point with format.
func values[T any](name, format string, xs []T, set func(*core.Config, T)) axis {
	a := axis{name: name}
	for _, x := range xs {
		a.points = append(a.points, point{fmt.Sprintf(format, x), func(c *core.Config) { set(c, x) }})
	}
	return a
}

// engines sweeps the recovery engine: FARM, then the spare-disk baseline.
var engines = axis{"engine", []point{
	{"FARM", func(c *core.Config) { c.UseFARM = true }},
	{"spare", func(c *core.Config) { c.UseFARM = false }},
}}

// column is one derived cell of a sweep row, formatted from the config
// that ran (Options.Scenario already applied) and its result.
type column struct {
	name string
	cell func(cfg core.Config, res core.Result) string
}

// lossPct formats P(data loss).
func lossPct(_ core.Config, res core.Result) string { return report.Pct(res.PLoss) }

// pLoss is the P(data loss) column.
var pLoss = column{"P(data loss)", lossPct}

// mean is a column holding the per-run mean of one Result aggregate.
func mean(name string, of func(core.Result) metrics.Welford) column {
	return column{name, func(_ core.Config, res core.Result) string {
		w := of(res)
		return report.F(w.Mean())
	}}
}

// meanWindow is the mean window-of-vulnerability column.
var meanWindow = mean("mean window (h)", func(r core.Result) metrics.Welford { return r.WindowHours })

// each runs the cross product of axes over base in order, the first axis
// outermost, and hands visit each point's labels, the config that ran and
// its result. id prefixes the -v progress line written per point.
func (o Options) each(id string, base core.Config, axes []axis,
	visit func(labels []string, cfg core.Config, res core.Result)) error {
	labels := make([]string, len(axes))
	var walk func(depth int, cfg core.Config) error
	walk = func(depth int, cfg core.Config) error {
		if depth == len(axes) {
			// The columns read the config that ran, which monteCarlo
			// patches the same way.
			ran, err := o.patch(cfg)
			if err != nil {
				return err
			}
			res, err := o.monteCarlo(cfg)
			if err != nil {
				return err
			}
			o.logf("%s %s: ploss=%.3f window=%.3fh", id, strings.Join(labels, " / "),
				res.PLoss, res.WindowHours.Mean())
			visit(labels, ran, res)
			return nil
		}
		for _, p := range axes[depth].points {
			c := cfg
			if p.set != nil {
				p.set(&c)
			}
			labels[depth] = p.label
			if err := walk(depth+1, c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, base)
}

// sweep runs the cross product of axes over base and returns a table with
// one row per point: the named axes' labels, then cols.
func (o Options) sweep(id, title string, base core.Config, axes []axis, cols ...column) (*report.Table, error) {
	var header []string
	for _, a := range axes {
		if a.name != "" {
			header = append(header, a.name)
		}
	}
	for _, c := range cols {
		header = append(header, c.name)
	}
	t := report.NewTable(title, header...)
	err := o.each(id, base, axes, func(labels []string, cfg core.Config, res core.Result) {
		row := make([]string, 0, len(header))
		for i, a := range axes {
			if a.name != "" {
				row = append(row, labels[i])
			}
		}
		for _, c := range cols {
			row = append(row, c.cell(cfg, res))
		}
		t.AddRow(row...)
	})
	return t, err
}

// grid runs rows × across over base and lays across over the columns: one
// row per rows point, its label then one cell per across point.
func (o Options) grid(id, title string, base core.Config, rows, across axis,
	cell func(core.Config, core.Result) string) (*report.Table, error) {
	header := []string{rows.name}
	for _, p := range across.points {
		header = append(header, p.label)
	}
	t := report.NewTable(title, header...)
	var row []string
	err := o.each(id, base, []axis{rows, across}, func(labels []string, cfg core.Config, res core.Result) {
		if row == nil {
			row = []string{labels[0]}
		}
		row = append(row, cell(cfg, res))
		if len(row) == len(header) {
			t.AddRow(row...)
			row = nil
		}
	})
	return t, err
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

// experiments is the registry in paper order; the extensions (ext-*)
// follow in lexical id order.
var experiments = []Experiment{
	{ID: "table1", Title: "Disk failure rate per 1000 hours by age band (Elerath)",
		Cost: "static", Run: runTable1},
	{ID: "table2", Title: "Parameters for a petabyte-scale storage system",
		Cost: "static", Run: runTable2},
	{ID: "fig3", Title: "Probability of data loss with and without FARM across " +
		"redundancy schemes (group sizes 1 GB and 5 GB, zero detection latency)",
		Cost: "heavy", Run: runFig3},
	{ID: "fig4a", Title: "Effect of failure-detection latency on probability of data " +
		"loss (two-way mirroring + FARM, group sizes 1-100 GB)",
		Cost: "heavy", Run: runFig4a},
	{ID: "fig4b", Title: "Probability of data loss against the ratio of detection " +
		"latency to recovery time",
		Cost: "heavy", Run: runFig4b},
	{ID: "fig5", Title: "System reliability at various recovery bandwidths " +
		"(1 GB and 5 GB groups, FARM vs traditional, 30 s detection latency)",
		Cost: "heavy", Run: runFig5},
	{ID: "fig6", Title: "Disk utilization of ten randomly selected disks, initial vs " +
		"after six years (group sizes 1, 10, 50 GB)",
		Cost: "cheap", Run: runFig6},
	{ID: "table3", Title: "Mean and standard deviation of disk utilization, initial vs " +
		"after six years (group sizes 1, 10, 50 GB)",
		Cost: "cheap", Run: runTable3},
	{ID: "fig7", Title: "Effect of disk replacement timing on reliability, with 95% " +
		"confidence intervals (batches at 2/4/6/8% of disks lost)",
		Cost: "moderate", Run: runFig7},
	{ID: "fig8a", Title: "Probability of data loss vs total system capacity " +
		"(0.1-5 PB, all schemes, FARM, 10 GB groups)",
		Cost: "heavy", Run: func(o Options) ([]*report.Table, error) { return runFig8(o, 1) }},
	{ID: "fig8b", Title: "Probability of data loss vs total capacity with disk " +
		"failure rates doubled",
		Cost: "heavy", Run: func(o Options) ([]*report.Table, error) { return runFig8(o, 2) }},
	{ID: "ext-adaptive", Title: "Extension: workload-adaptive recovery bandwidth (§2.4) vs " +
		"the fixed 20% reservation",
		Cost: "moderate", Run: runExtAdaptive},
	{ID: "ext-bigfleet", Title: "Extension: FARM recovery at fleet scale — 2k to 100k drives " +
		"under the paper's Table 2 parameters",
		Cost: "heavy", Run: runExtBigFleet},
	{ID: "ext-elastic", Title: "Extension: foreground storms, degraded reads, recovery QoS, " +
		"and maintenance windows",
		Cost: "moderate", Run: runExtElastic},
	{ID: "ext-failslow", Title: "Extension: fail-slow (gray) disks, straggler detection, " +
		"and hedged recovery",
		Cost: "moderate", Run: runExtFailSlow},
	{ID: "ext-faults", Title: "Extension: latent sector errors, scrubbing, correlated bursts, " +
		"and transient rebuild faults",
		Cost: "moderate", Run: runExtFaults},
	{ID: "ext-forensics", Title: "Extension: loss forensics — causal postmortems and " +
		"window-of-vulnerability blame, FARM vs spare",
		Cost: "moderate", Run: runExtForensics},
	{ID: "ext-network", Title: "Extension: topology-aware recovery under rack/switch failures, " +
		"partitions, and oversubscribed links",
		Cost: "moderate", Run: runExtNetwork},
	{ID: "ext-smart", Title: "Extension: S.M.A.R.T. failure prediction and proactive " +
		"draining (§2.3) vs purely reactive recovery",
		Cost: "moderate", Run: runExtSmart},
}

// Lookup returns the experiment for a paper label.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment in paper order.
func All() []Experiment { return experiments }

// gb is shorthand for byte sizes in tables.
func gb(n int64) int64 { return n * disk.GB }

// fmtGB renders a group size label.
func fmtGB(bytes int64) string {
	return fmt.Sprintf("%d GB", bytes/disk.GB)
}
