// Command farmtrace runs a single six-year trajectory of the FARM
// simulator and emits its full event trace — failures, detections,
// rebuilds, data losses, health warnings, replacement batches — as JSON
// lines, with a summary on stderr. The first line is the schema header
// {"trace_schema":2}; each later line is one trace.Event, whose typed
// payload fields (n, x, y) and rebuild id are described in the trace
// package doc. farmstat and trace.ReadJSONL refuse transcripts without
// that header.
//
// Usage:
//
//	farmtrace [flags] > trace.jsonl
//
// Flags:
//
//	-data N      user data in TB (default 50)
//	-group N     redundancy group size in GB (default 10)
//	-scheme m/n  redundancy scheme (default 1/2)
//	-spare       use the traditional spare-disk engine instead of FARM
//	-latency S   failure-detection latency in seconds (default 30)
//	-smart A     S.M.A.R.T. prediction accuracy 0..1 (default 0)
//	-replace F   replacement batch trigger fraction (default 0 = off)
//	-seed N      random seed (default 1)
//	-summary     suppress the JSONL stream; print only the summary
//
// Network fault-domain flags (all off by default; leaving them off keeps
// the flat-network seed behaviour byte-identical):
//
//	-racks N       racks in the fabric (0 = flat network, the default)
//	-rackaware     spread each group across distinct racks
//	-uplink M      ToR uplink bandwidth in MB/s (0 = unconstrained)
//	-oversub R     spine oversubscription ratio (default 1)
//	-falsedead H   hours before an unreachable rack is written off (0 = never)
//	-switchfails R ToR switch failures per year (rack dark until written off)
//	-powerfails R  rack power events per year (self-restoring)
//	-partitions R  transient network partitions per year (self-healing)
//
// Living-fleet flags (all off by default; leaving them off keeps the
// seed behaviour byte-identical):
//
//	-load F        mean user share of disk bandwidth 0..1 (0 = idle fleet)
//	-bursts F      demand burst episodes per day (flash crowds, batch jobs)
//	-burstshare F  mean extra user share during a burst episode
//	-rackskew F    per-rack demand skew 0..1 (needs -racks)
//	-throttle P    recovery throttle policy: fixed, idle, aimd, or deadline
//	               (empty = the paper's fixed reservation; aimd and
//	               deadline need -load; idle follows the diurnal
//	               idle-time schedule)
//	-floor M       throttle floor in MB/s (default 16)
//	-maxrate M     adaptive throttle ceiling in MB/s (default 64)
//	-vintage F     AFR scale of the starting drive vintage (default 1)
//	-drainevery H  planned-drain period in hours (0 = off)
//	-draindisks N  disks evacuated per drain window
//	-upgradeevery H  rolling-upgrade period in hours (0 = off; needs -racks)
//	-upgradehours H  upgrade window duration in hours
//	-growevery H   batch-growth period in hours (0 = off)
//	-growdisks N   disks added per growth batch
//	-growafr F     AFR factor compounded per growth vintage
//	-growcap F     capacity factor compounded per growth vintage
//	-growbw F      bandwidth factor compounded per growth vintage
//
// Flight-recorder flags (all off by default; attaching them never
// changes the simulation — the trace gains only the two span-lifecycle
// kinds when -spans is set):
//
//	-spans F     write rebuild-lifecycle spans as JSON lines to F
//	-series F    write periodic system-state samples as JSON lines to F
//	-sample H    sampling cadence in simulated hours (default 24)
//	-metrics F   write the run's metrics registry as JSON lines to F
//	-telemetry A serve /progress, /metrics, /debug/pprof/ on address A
//	             for the lifetime of the run
//
// Forensic flags (off by default; the analysis is a pure function of
// the trace and spans, so it never changes the simulation):
//
//	-forensics F write one causal postmortem per data-loss and dropped
//	             rebuild as JSON lines to F; spans are recorded
//	             internally for the window decomposition, postmortem
//	             counters and blame histograms join the -metrics
//	             registry, and the verdict count lands on stderr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeFile writes one JSONL artifact through a buffered writer.
func writeFile(path string, write func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "farmtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	dataTB := flag.Int64("data", 50, "user data in TB")
	groupGB := flag.Int64("group", 10, "group size in GB")
	schemeStr := flag.String("scheme", "1/2", "redundancy scheme m/n")
	spare := flag.Bool("spare", false, "use the traditional spare-disk engine")
	latency := flag.Float64("latency", 30, "detection latency in seconds")
	smartAcc := flag.Float64("smart", 0, "S.M.A.R.T. prediction accuracy")
	replaceTrig := flag.Float64("replace", 0, "replacement batch trigger fraction")
	seed := flag.Uint64("seed", 1, "random seed")
	summaryOnly := flag.Bool("summary", false, "print only the summary")
	racks := flag.Int("racks", 0, "racks in the fabric (0 = flat network)")
	rackAware := flag.Bool("rackaware", false, "spread each group across distinct racks")
	uplink := flag.Float64("uplink", 0, "ToR uplink bandwidth in MB/s (0 = unconstrained)")
	oversub := flag.Float64("oversub", 1, "spine oversubscription ratio")
	falseDead := flag.Float64("falsedead", 0, "hours before an unreachable rack is written off (0 = never)")
	switchFails := flag.Float64("switchfails", 0, "ToR switch failures per year")
	powerFails := flag.Float64("powerfails", 0, "rack power events per year (8 h mean restore)")
	partitions := flag.Float64("partitions", 0, "transient partitions per year (12 h mean heal)")
	load := flag.Float64("load", 0, "mean user share of disk bandwidth 0..1 (0 = idle fleet)")
	bursts := flag.Float64("bursts", 0, "demand burst episodes per day")
	burstShare := flag.Float64("burstshare", 0, "mean extra user share during a burst episode")
	rackSkew := flag.Float64("rackskew", 0, "per-rack demand skew 0..1")
	throttle := flag.String("throttle", "", "recovery throttle policy: fixed, idle, aimd, or deadline (aimd and deadline need -load)")
	floor := flag.Float64("floor", 0, "throttle floor in MB/s (0 = policy default)")
	maxRate := flag.Float64("maxrate", 0, "adaptive throttle ceiling in MB/s (0 = policy default)")
	vintage := flag.Float64("vintage", 1, "AFR scale of the starting drive vintage")
	drainEvery := flag.Float64("drainevery", 0, "planned-drain period in hours (0 = off)")
	drainDisks := flag.Int("draindisks", 0, "disks evacuated per drain window")
	upgradeEvery := flag.Float64("upgradeevery", 0, "rolling-upgrade period in hours (0 = off)")
	upgradeHours := flag.Float64("upgradehours", 0, "upgrade window duration in hours")
	growEvery := flag.Float64("growevery", 0, "batch-growth period in hours (0 = off)")
	growDisks := flag.Int("growdisks", 0, "disks added per growth batch")
	growAFR := flag.Float64("growafr", 0, "AFR factor compounded per growth vintage")
	growCap := flag.Float64("growcap", 0, "capacity factor compounded per growth vintage")
	growBW := flag.Float64("growbw", 0, "bandwidth factor compounded per growth vintage")
	spansPath := flag.String("spans", "", "write rebuild-lifecycle spans (JSONL) to this file")
	seriesPath := flag.String("series", "", "write system-state samples (JSONL) to this file")
	sampleHours := flag.Float64("sample", 24, "sampling cadence in simulated hours")
	metricsPath := flag.String("metrics", "", "write the metrics registry (JSONL) to this file")
	forensicsPath := flag.String("forensics", "", "write causal postmortems (JSONL) to this file")
	telemetry := flag.String("telemetry", "", "serve live telemetry on this HTTP address (empty = off)")
	flag.Parse()

	scheme, err := redundancy.Parse(*schemeStr)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = *dataTB * disk.TB
	cfg.GroupBytes = *groupGB * disk.GB
	cfg.Scheme = scheme
	cfg.UseFARM = !*spare
	cfg.DetectionLatencyHours = *latency / 3600
	cfg.SmartAccuracy = *smartAcc
	cfg.SmartLeadHours = 24
	cfg.ReplaceTrigger = *replaceTrig
	if *racks > 0 {
		cfg.Topology = topology.Config{
			Racks:                 *racks,
			RackAware:             *rackAware,
			UplinkMBps:            *uplink,
			OversubscriptionRatio: *oversub,
			FalseDeadHours:        *falseDead,
		}
		cfg.Faults.Network = faults.NetworkFaultConfig{
			SwitchFailsPerYear:    *switchFails,
			PowerEventsPerYear:    *powerFails,
			PowerRestoreMeanHours: 8,
			PartitionsPerYear:     *partitions,
			PartitionMeanHours:    12,
		}
	}

	cfg.VintageScale = *vintage
	if *load > 0 || *bursts > 0 {
		cfg.Demand = workload.DemandConfig{
			BaseShare:    *load,
			BurstsPerDay: *bursts,
			BurstShare:   *burstShare,
			RackSkew:     *rackSkew,
		}
	}
	if *throttle != "" {
		cfg.Throttle = workload.ThrottleConfig{
			Policy:    *throttle,
			FloorMBps: *floor,
			MaxMBps:   *maxRate,
		}
	}
	cfg.Maintenance = core.MaintenanceConfig{
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

	rec := trace.NewRecorder()
	cfg.Hook = rec.Record

	// Flight recorder: attach only the instruments asked for, so the
	// default invocation stays exactly the seed behaviour.
	ob := &obs.RunObserver{}
	if *metricsPath != "" || *telemetry != "" {
		ob.Registry = obs.NewRegistry()
	}
	if *spansPath != "" || *forensicsPath != "" {
		// Forensics needs the span phase accounting for its window
		// decomposition even when the spans themselves are not asked for.
		ob.Spans = obs.NewSpanLog()
	}
	if *seriesPath != "" {
		ob.Series = obs.NewSeries()
		ob.SampleEveryHours = *sampleHours
	}
	if ob.Registry != nil || ob.Spans != nil || ob.Series != nil {
		cfg.Obs = ob
	}

	var hub *obs.Campaign
	if *telemetry != "" {
		hub = obs.NewCampaign()
		srv, terr := obs.StartTelemetry(*telemetry, hub)
		if terr != nil {
			return fmt.Errorf("telemetry: %w", terr)
		}
		defer srv.Close()
		hub.Begin(1, 1)
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (progress, metrics, debug/pprof)\n", srv.Addr())
	}

	s, err := core.NewSimulator(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run(*seed)
	if err != nil {
		return err
	}
	if hub != nil {
		hub.WorkerRunDone(0)
		hub.FoldRun(res.DataLoss, ob.Registry)
	}

	if *forensicsPath != "" {
		rep := forensics.Analyze(rec.Events(), ob.Spans.Spans(), forensics.Context{
			OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
			MaxResourcings:        cfg.Faults.MaxResourcings,
		})
		if ob.Registry != nil {
			// Join the postmortem counters and blame histograms to the
			// run's registry before it is written below.
			rep.RecordInto(ob.Registry)
		}
		if err := writeFile(*forensicsPath, func(w *bufio.Writer) error { return rep.WriteJSONL(w) }); err != nil {
			return fmt.Errorf("forensics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "forensics: %d postmortems (%d losses, %d drops)\n",
			len(rep.Posts), rep.Losses, rep.Drops)
	}
	if *spansPath != "" {
		if err := writeFile(*spansPath, func(w *bufio.Writer) error { return ob.Spans.WriteJSONL(w) }); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if *seriesPath != "" {
		if err := writeFile(*seriesPath, func(w *bufio.Writer) error { return ob.Series.WriteJSONL(w) }); err != nil {
			return fmt.Errorf("series: %w", err)
		}
	}
	if *metricsPath != "" {
		if err := writeFile(*metricsPath, func(w *bufio.Writer) error { return ob.Registry.WriteJSONL(w) }); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}

	if !*summaryOnly {
		w := bufio.NewWriter(os.Stdout)
		if err := rec.WriteJSONL(w); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	sum := trace.Summarize(rec.Events())
	fmt.Fprintf(os.Stderr, "drives: %d, failures: %d, rebuilt: %d, lost groups: %d\n",
		res.Disks, res.DiskFailures, res.BlocksRebuilt, res.LostGroups)
	if err := sum.WriteSummary(os.Stderr); err != nil {
		return err
	}
	if err := trace.CheckCausality(rec.Events()); err != nil {
		return fmt.Errorf("causality check failed: %w", err)
	}
	fmt.Fprintln(os.Stderr, "causality check: ok")
	return nil
}
