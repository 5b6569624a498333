package experiment

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/report"
	"repro/internal/topology"
	"repro/internal/workload"
)

// forensicStorm is the everything-on scenario both engines are
// autopsied under: a hot vintage on an oversubscribed 10-rack fabric
// with switch failures, power events, and partitions; latent sector
// errors with scrubbing; correlated bursts against a bounded spare
// pool; fail-slow drives; and foreground demand with an adaptive
// recovery throttle. Every taxonomy class has a live producer.
func forensicStorm(opts Options, farm bool) core.Config {
	cfg := opts.baseConfig()
	cfg.UseFARM = farm
	cfg.VintageScale = 4
	cfg.ReplaceTrigger = 0.04
	cfg.Topology = topology.Config{
		Racks:                 10,
		UplinkMBps:            1000,
		OversubscriptionRatio: 4,
		FalseDeadHours:        24,
	}
	cfg.Faults.Network = faults.NetworkFaultConfig{
		SwitchFailsPerYear:    2,
		PowerEventsPerYear:    4,
		PowerRestoreMeanHours: 8,
		PartitionsPerYear:     50,
		PartitionMeanHours:    12,
	}
	cfg.Faults.LSERatePerDiskHour = 1e-5
	cfg.Faults.ScrubIntervalHours = 720
	cfg.Faults.BurstsPerYear = 6
	cfg.Faults.BurstMeanSize = 6
	cfg.Faults.TransientReadProb = 0.25
	cfg.Faults.FailSlow.OnsetRatePerDiskHour = 2e-5
	cfg.Faults.FailSlow.SlowFactor = 8
	cfg.Faults.FailSlow.CrawlProb = 0.4
	cfg.Faults.FailSlow.RecoveryMeanHours = 4000
	cfg.Straggler.Enabled = true
	if !farm {
		cfg.Faults.SparePoolSize = 2
	}
	cfg.Demand = workload.DemandConfig{
		BaseShare:        0.3,
		DiurnalAmplitude: 0.5,
		BurstsPerDay:     1,
		BurstShare:       0.25,
		RackSkew:         0.3,
		MaxShare:         0.7,
	}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 32}
	return cfg
}

// runExtForensics autopsies every loss of a storm campaign instead of
// only counting them. Two tables:
//
//  1. The loss taxonomy: every data-loss and dropped-rebuild event of
//     the campaign classified by its causal chain — rack write-offs,
//     latent errors struck during rebuilds, bursts against an
//     exhausted spare pool, plain independent double failures — for
//     FARM and the spare-disk baseline under the identical storm. The
//     paper's P(loss) tells the engines apart; the taxonomy tells you
//     *which* failure mode each engine's architecture suppresses.
//  2. The blame decomposition: each event's window of vulnerability
//     split into detect/queue/transfer/retry phases plus the
//     multiplicative stretches (fail-slow sources, foreground
//     contention, spine oversubscription), averaged over all
//     postmortems per engine — where the exposure hours actually came
//     from, and therefore which knob shortens them.
func runExtForensics(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()

	engines := []struct {
		label string
		farm  bool
		agg   *forensics.Aggregate
	}{
		{label: "FARM", farm: true},
		{label: "spare", farm: false},
	}
	for i := range engines {
		// Forensic campaigns bypass opts.monteCarlo: the memoization
		// cache keys Results, not aggregates, and a cached Result would
		// leave the postmortems empty.
		cfg, err := opts.patch(forensicStorm(opts, engines[i].farm))
		if err != nil {
			return nil, err
		}
		agg := forensics.NewAggregate()
		if _, err := core.MonteCarlo(cfg, core.MonteCarloOptions{
			Runs:      opts.Runs,
			BaseSeed:  opts.BaseSeed,
			Workers:   opts.Workers,
			Telemetry: opts.Telemetry,
			Forensics: agg,
		}); err != nil {
			return nil, err
		}
		engines[i].agg = agg
		opts.logf("ext-forensics engine=%s posts=%d losses=%d drops=%d",
			engines[i].label, agg.Posts, agg.Losses, agg.Drops)
	}
	farm, spare := engines[0].agg, engines[1].agg

	t1 := report.NewTable("Extension: loss taxonomy under the everything-on storm",
		"class", "FARM events/run", "FARM share", "spare events/run", "spare share")
	share := func(a *forensics.Aggregate, n int) float64 {
		if a.Posts == 0 {
			return 0
		}
		return float64(n) / float64(a.Posts)
	}
	perRun := func(a *forensics.Aggregate, n int) float64 {
		if a.Runs == 0 {
			return 0
		}
		return float64(n) / float64(a.Runs)
	}
	for _, c := range forensics.Classes {
		nf, ns := farm.ByClass[c], spare.ByClass[c]
		if nf == 0 && ns == 0 {
			continue
		}
		t1.AddRow(c,
			report.F(perRun(farm, nf)), report.Pct(share(farm, nf)),
			report.F(perRun(spare, ns)), report.Pct(share(spare, ns)))
	}
	t1.AddNote("runs=%d, scale=%.3g; %d FARM postmortems, %d spare postmortems",
		opts.Runs, opts.Scale, farm.Posts, spare.Posts)
	t1.AddNote("every data-loss and dropped-rebuild event of the campaign gets exactly")
	t1.AddNote("one verdict; expected shape: the spare engine adds queue-driven classes")
	t1.AddNote("(burst+spare-exhaustion) that FARM's parallel rebuild never produces")

	t2 := report.NewTable("Extension: window-of-vulnerability blame (mean fraction)",
		"component", "FARM", "spare")
	fb, sb := farm.MeanBlame(), spare.MeanBlame()
	for _, c := range []struct {
		name       string
		farm, spre float64
	}{
		{"detect wait", fb.Detect, sb.Detect},
		{"queue wait", fb.Queue, sb.Queue},
		{"transfer", fb.Transfer, sb.Transfer},
		{"retry backoff", fb.Retry, sb.Retry},
		{"hedge overlap", fb.Hedge, sb.Hedge},
		{"stalled (parked/fenced)", fb.Stalled, sb.Stalled},
		{"fail-slow stretch", fb.FailSlow, sb.FailSlow},
		{"foreground contention", fb.Contention, sb.Contention},
		{"network oversubscription", fb.Network, sb.Network},
		{"instant (no window)", fb.Instant, sb.Instant},
	} {
		t2.AddRow(c.name, report.Pct(c.farm), report.Pct(c.spre))
	}
	t2.AddNote("fractions of each lost window, averaged over every postmortem of the")
	t2.AddNote("campaign; columns sum to 1. Expected shape: spare-engine windows are")
	t2.AddNote("dominated by queue wait, FARM windows by transfer and its stretches")

	return []*report.Table{t1, t2}, nil
}
