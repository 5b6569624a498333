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
//	-scenario F  JSON patch over the base system (see below)
//	-seed N      random seed (default 1)
//	-summary     suppress the JSONL stream; print only the summary
//
// The base system is core.DefaultConfig (the paper's Table 2) with 50 TB
// of user data and a 24 h S.M.A.R.T. lead time. A scenario file is one
// JSON object whose keys are core.Config field names; omitted keys keep
// the base, and nested structs merge field by field. Unknown keys are an
// error, and an incoherent combination fails Validate. For example:
//
//	{"TotalDataBytes": 109951162777600, "SmartAccuracy": 0.3,
//	 "Demand": {"BaseShare": 0.3, "BurstsPerDay": 1},
//	 "Throttle": {"Policy": "aimd", "FloorMBps": 8, "MaxMBps": 16}}
//
// Sizes are in bytes (1 TB = 2^40). scenarios/ holds checked-in examples.
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
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
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

// baseConfig is the system a scenario patches: the paper's base with
// 50 TB of user data and a 24 h S.M.A.R.T. lead time.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 50 * disk.TB
	cfg.SmartLeadHours = 24
	return cfg
}

func run() error {
	scenario := flag.String("scenario", "", "JSON patch over the base config (keys are core.Config field names)")
	seed := flag.Uint64("seed", 1, "random seed")
	summaryOnly := flag.Bool("summary", false, "print only the summary")
	spansPath := flag.String("spans", "", "write rebuild-lifecycle spans (JSONL) to this file")
	seriesPath := flag.String("series", "", "write system-state samples (JSONL) to this file")
	sampleHours := flag.Float64("sample", 24, "sampling cadence in simulated hours")
	metricsPath := flag.String("metrics", "", "write the metrics registry (JSONL) to this file")
	forensicsPath := flag.String("forensics", "", "write causal postmortems (JSONL) to this file")
	telemetry := flag.String("telemetry", "", "serve live telemetry on this HTTP address (empty = off)")
	flag.Parse()

	cfg := baseConfig()
	if *scenario != "" {
		data, err := os.ReadFile(*scenario)
		if err != nil {
			return err
		}
		if cfg, err = core.PatchConfig(cfg, data); err != nil {
			return fmt.Errorf("%s: %w", *scenario, err)
		}
	}

	rec := trace.NewRecorder()
	cfg.Hook = rec.Record

	// Flight recorder: attach only the instruments asked for, so the
	// default invocation stays exactly the seed behaviour.
	ob := &obs.RunObserver{}
	if *metricsPath != "" || *telemetry != "" {
		ob.Registry = obs.NewRegistry()
	}
	var spans *obs.SpanLog
	if *spansPath != "" || *forensicsPath != "" {
		// Forensics needs the span phase accounting for its window
		// decomposition even when the spans themselves are not asked for.
		spans = obs.NewSpanLog()
		ob.Spans = spans
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
		rep := forensics.Analyze(rec.Events(), spans.Spans(), cfg.ForensicContext())
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
		if err := writeFile(*spansPath, func(w *bufio.Writer) error { return spans.WriteJSONL(w) }); err != nil {
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
