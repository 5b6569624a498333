// Command farmsim regenerates the tables and figures of "Evaluation of
// Distributed Recovery in Large-Scale Storage Systems" (HPDC 2004) from
// the FARM simulator in this repository.
//
// Usage:
//
//	farmsim list
//	farmsim run [flags] <experiment-id>...
//	farmsim run [flags] all
//
// Flags for run:
//
//	-runs N      Monte Carlo trajectories per data point (default 100)
//	-scale F     fraction of the paper's system size (default 1.0 = 2 PB;
//	             use e.g. 0.1 on small machines — shapes are preserved)
//	-seed N      base random seed (default 1)
//	-workers N   parallel runs (default GOMAXPROCS)
//	-csv         emit CSV instead of aligned text
//	-v           log per-point progress to stderr
//	-telemetry A serve live campaign telemetry on HTTP address A
//	             (e.g. :8080 or 127.0.0.1:0): /progress (JSON),
//	             /metrics (Prometheus text), /debug/pprof/. Read-only —
//	             results stay byte-identical with telemetry on or off.
//	-scenario F  JSON patch applied to every data point's config. Its
//	             keys are core.Config field names; omitted keys keep the
//	             experiment's own settings, and nested structs merge field
//	             by field, so any paper figure can be re-run under
//	             foreground load, a throttle policy, or a maintenance
//	             schedule (see scenarios/). Unknown keys are an error.
//
// Examples:
//
//	farmsim run table1
//	farmsim run -runs 200 -scale 0.25 fig3
//	farmsim run -runs 60 -scale 0.1 -v all
//	farmsim run -runs 4 -scale 0.02 -scenario scenarios/load-aimd.json fig7

//farm:factsink farmsim's import closure spans the full simulator, so farmlint's whole-program aggregations (dead config knobs, dead trace kinds) are decidable here and only here
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "farmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return list()
	case "run":
		return runExperiments(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  farmsim list
  farmsim run [-runs N] [-scale F] [-seed N] [-workers N] [-csv] [-v] [-telemetry addr]
              [-scenario file.json] <id>... | all

A scenario's keys are core.Config field names; omitted keys keep each
experiment's own settings.`)
}

func list() error {
	fmt.Println("Experiments (paper table/figure -> farmsim id):")
	for _, e := range experiment.All() {
		fmt.Printf("  %-7s %-8s %s\n", e.ID, "("+e.Cost+")", e.Title)
	}
	return nil
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	runs := fs.Int("runs", 100, "Monte Carlo runs per data point")
	scale := fs.Float64("scale", 1.0, "fraction of the paper's system size")
	seed := fs.Uint64("seed", 1, "base random seed")
	workers := fs.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
	csv := fs.Bool("csv", false, "emit CSV")
	verbose := fs.Bool("v", false, "log per-point progress")
	telemetry := fs.String("telemetry", "", "serve live telemetry on this HTTP address (empty = off)")
	scenario := fs.String("scenario", "", "JSON patch over every data point's config (keys are core.Config field names)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment ids given (try 'farmsim list')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiment.All() {
			ids = append(ids, e.ID)
		}
	}

	opts := experiment.Options{
		Runs:     *runs,
		BaseSeed: *seed,
		Workers:  *workers,
		Scale:    *scale,
	}
	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			return err
		}
		// Reject a malformed file up front, not at the first data point
		// (static tables never reach one).
		if _, err := core.PatchConfig(core.Config{}, data); err != nil {
			return fmt.Errorf("%s: %w", *scenario, err)
		}
		opts.Scenario = data
	}
	if *verbose {
		opts.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", a...)
		}
	}
	if *telemetry != "" {
		hub := obs.NewCampaign()
		srv, err := obs.StartTelemetry(*telemetry, hub)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		opts.Telemetry = hub
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (progress, metrics, debug/pprof)\n", srv.Addr())
	}

	for _, id := range ids {
		e, ok := experiment.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'farmsim list')", id)
		}
		//farm:wallclock verbose-mode elapsed-time reporting only; never feeds the simulation
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tables {
			var werr error
			if *csv {
				werr = t.WriteCSV(os.Stdout)
			} else {
				werr = t.WriteText(os.Stdout)
			}
			if werr != nil {
				return werr
			}
			fmt.Println()
		}
		if *verbose {
			//farm:wallclock verbose-mode elapsed-time reporting only; never feeds the simulation
			fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
