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
//
// Living-fleet overrides (all off by default; each replaces the matching
// piece of every data point's config, so any paper figure can be re-run
// under foreground load, a throttle policy, or a maintenance schedule):
//
//	-load F        mean user share of disk bandwidth 0..1
//	-bursts F      demand burst episodes per day
//	-burstshare F  mean extra user share during a burst episode
//	-rackskew F    per-rack demand skew 0..1 (needs a rack topology)
//	-throttle P    recovery throttle policy: fixed, idle, aimd, or deadline
//	               (aimd and deadline need a demand model: -load and/or
//	               -bursts; idle follows the diurnal idle-time schedule)
//	-floor M       throttle floor in MB/s (default 16)
//	-maxrate M     adaptive throttle ceiling in MB/s (default 64)
//	-vintage F     starting-vintage AFR scale (0 = experiment default)
//	-drainevery H  planned-drain period in hours
//	-draindisks N  disks evacuated per drain window
//	-upgradeevery H  rolling-upgrade period in hours (needs racks)
//	-upgradehours H  upgrade window duration in hours
//	-growevery H   batch-growth period in hours
//	-growdisks N   disks added per growth batch
//	-growafr F     AFR factor compounded per growth vintage
//	-growcap F     capacity factor compounded per growth vintage
//	-growbw F      bandwidth factor compounded per growth vintage
//
// Examples:
//
//	farmsim run table1
//	farmsim run -runs 200 -scale 0.25 fig3
//	farmsim run -runs 60 -scale 0.1 -v all

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
	"repro/internal/workload"
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
  farmsim run [-runs N] [-scale F] [-seed N] [-workers N] [-csv] [-v] [-telemetry addr] <id>... | all`)
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
	load := fs.Float64("load", 0, "mean user share of disk bandwidth 0..1")
	bursts := fs.Float64("bursts", 0, "demand burst episodes per day")
	burstShare := fs.Float64("burstshare", 0, "mean extra user share during a burst episode")
	rackSkew := fs.Float64("rackskew", 0, "per-rack demand skew 0..1")
	throttle := fs.String("throttle", "", "recovery throttle policy: fixed, idle, aimd, or deadline (aimd and deadline need -load or -bursts)")
	floor := fs.Float64("floor", 0, "throttle floor in MB/s (0 = policy default)")
	maxRate := fs.Float64("maxrate", 0, "adaptive throttle ceiling in MB/s (0 = policy default)")
	vintage := fs.Float64("vintage", 0, "starting-vintage AFR scale (0 = experiment default)")
	drainEvery := fs.Float64("drainevery", 0, "planned-drain period in hours (0 = off)")
	drainDisks := fs.Int("draindisks", 0, "disks evacuated per drain window")
	upgradeEvery := fs.Float64("upgradeevery", 0, "rolling-upgrade period in hours (0 = off)")
	upgradeHours := fs.Float64("upgradehours", 0, "upgrade window duration in hours")
	growEvery := fs.Float64("growevery", 0, "batch-growth period in hours (0 = off)")
	growDisks := fs.Int("growdisks", 0, "disks added per growth batch")
	growAFR := fs.Float64("growafr", 0, "AFR factor compounded per growth vintage")
	growCap := fs.Float64("growcap", 0, "capacity factor compounded per growth vintage")
	growBW := fs.Float64("growbw", 0, "bandwidth factor compounded per growth vintage")
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
		Runs:         *runs,
		BaseSeed:     *seed,
		Workers:      *workers,
		Scale:        *scale,
		VintageScale: *vintage,
	}
	if *load > 0 || *bursts > 0 {
		opts.Demand = &workload.DemandConfig{
			BaseShare:    *load,
			BurstsPerDay: *bursts,
			BurstShare:   *burstShare,
			RackSkew:     *rackSkew,
		}
	}
	if *throttle != "" {
		opts.Throttle = &workload.ThrottleConfig{
			Policy:    *throttle,
			FloorMBps: *floor,
			MaxMBps:   *maxRate,
		}
	}
	maint := core.MaintenanceConfig{
		DrainEveryHours:      *drainEvery,
		DrainDisks:           *drainDisks,
		UpgradeEveryHours:    *upgradeEvery,
		UpgradeDurationHours: *upgradeHours,
		GrowEveryHours:       *growEvery,
		GrowDisks:            *growDisks,
		GrowAFRFactor:        *growAFR,
		GrowCapacityFactor:   *growCap,
		GrowBandwidthFactor:  *growBW,
	}
	if maint.Enabled() {
		opts.Maintenance = &maint
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
