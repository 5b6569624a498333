package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/forensics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Result aggregates a Monte Carlo campaign: the statistics the paper's
// figures plot.
type Result struct {
	// Runs is the number of completed trajectories.
	Runs int
	// PLoss estimates the probability of data loss (fraction of runs
	// with at least one lost group), with a Wilson 95% interval.
	PLoss      float64
	PLossLo    float64
	PLossHi    float64
	lossCounts metrics.Proportion
	// RedirectionRate is the fraction of runs that saw at least one
	// recovery redirection (the paper reports <8% at worst, §2.3).
	RedirectionRate float64
	// LostGroups aggregates groups lost per run.
	LostGroups metrics.Welford
	// DiskFailures aggregates drive deaths per run.
	DiskFailures metrics.Welford
	// WindowHours aggregates per-run mean windows of vulnerability.
	WindowHours metrics.Welford
	// BlocksRebuilt aggregates completed reconstructions per run.
	BlocksRebuilt metrics.Welford
	// MigratedBytes aggregates replacement-driven migration per run.
	MigratedBytes metrics.Welford
	// BatchesAdded aggregates replacement batches per run.
	BatchesAdded metrics.Welford
	// Predicted aggregates S.M.A.R.T.-predicted failures per run.
	Predicted metrics.Welford
	// DrainedBlocks aggregates proactively drained blocks per run.
	DrainedBlocks metrics.Welford
	// Fault-injection aggregates (all zero when cfg.Faults is disabled).
	LSEInjected     metrics.Welford
	LSEDetected     metrics.Welford
	ScrubFound      metrics.Welford
	RebuildRetries  metrics.Welford
	Resourcings     metrics.Welford
	Bursts          metrics.Welford
	QueuedSpareJobs metrics.Welford
	// Fail-slow / straggler-mitigation aggregates (all zero when the
	// fail-slow config and the straggler policy are disabled).
	FailSlowOnsets  metrics.Welford
	SlowEvicted     metrics.Welford
	Hedges          metrics.Welford
	HedgeWins       metrics.Welford
	RebuildTimeouts metrics.Welford
	// WindowP50Hours/WindowP99Hours aggregate each run's streaming
	// median and 99th-percentile vulnerability window — the rebuild-time
	// tail the fail-slow experiment reports.
	WindowP50Hours metrics.Welford
	WindowP99Hours metrics.Welford
	// Network-fault aggregates (all zero when cfg.Topology and
	// cfg.Faults.Network are disabled). MaxWindowHours aggregates each
	// run's worst vulnerability window — the tail the false-dead timeout
	// trades against rebuild-storm traffic.
	SwitchFails        metrics.Welford
	Partitions         metrics.Welford
	FalseDeadRacks     metrics.Welford
	FalseDeadDisks     metrics.Welford
	ParkedTransfers    metrics.Welford
	CrossRackTransfers metrics.Welford
	CrossRackGB        metrics.Welford
	MaxWindowHours     metrics.Welford
	// Living-fleet aggregates (all zero when cfg.Demand, cfg.Throttle,
	// and cfg.Maintenance are disabled). The degraded-read latency
	// quantiles fold only runs that sampled at least one degraded read;
	// the throttle mean folds only runs with at least one QoS decision.
	DemandBursts      metrics.Welford
	DegradedReads     metrics.Welford
	DegradedReadP50Ms metrics.Welford
	DegradedReadP99Ms metrics.Welford
	DegradedReadMaxMs metrics.Welford
	HealthyReadP99Ms  metrics.Welford
	ThrottleSteps     metrics.Welford
	ThrottleMeanMBps  metrics.Welford
	PlannedDrains     metrics.Welford
	UpgradeWindows    metrics.Welford
	FencedParks       metrics.Welford
	GrowthBatches     metrics.Welford
	GrowthDisksAdded  metrics.Welford
	// Disks is the initial drive population (identical across runs).
	Disks int
}

// MonteCarloOptions tunes the campaign.
type MonteCarloOptions struct {
	// Runs is the number of trajectories (the paper uses 100–1000 per
	// point).
	Runs int
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
	// BaseSeed derives per-run seeds; run i uses BaseSeed + i.
	BaseSeed uint64
	// Progress, when non-nil, receives the completed-run count as runs
	// are folded into the aggregate (monotone, in run order).
	Progress func(done, total int)
	// Telemetry, when non-nil, receives live campaign telemetry: each run
	// executes with its own private metrics registry, and the registries
	// are merged into the campaign master in strict run-index order (the
	// same ordered fold that makes the Result deterministic), so the
	// merged registry is byte-identical regardless of worker count or
	// scheduling. Serving the campaign over HTTP is the caller's business
	// (obs.StartTelemetry).
	Telemetry *obs.Campaign
	// Forensics, when non-nil, receives a causal postmortem for every
	// data-loss and dropped-rebuild event of the campaign. Each run
	// executes with a private trace recorder and span log (the
	// simulation itself is untouched — tracing and spans are read-only
	// taps), forensics.Analyze runs off the hot path after the run
	// finishes, and the per-run reports are folded into the aggregate in
	// strict run-index order alongside the Result, so the aggregate —
	// counts, blame sums, registry bytes — is identical regardless of
	// worker count. Incompatible with a caller-supplied Config.Hook: one
	// hook cannot soundly observe many concurrent runs.
	Forensics *forensics.Aggregate
}

// ErrNoRuns reports an empty campaign request.
var ErrNoRuns = errors.New("core: MonteCarlo needs at least one run")

// ErrSharedObs rejects a Config.Obs on a Monte Carlo campaign: one
// observer cannot soundly record many concurrent runs. Use
// MonteCarloOptions.Telemetry for campaign metrics, Simulator.Run for
// spans and series.
var ErrSharedObs = errors.New("core: Config.Obs is per-run; use MonteCarloOptions.Telemetry for campaigns")

// ErrSharedHook rejects a Config.Hook on a forensic campaign: forensics
// needs a private per-run event stream, and a shared hook across
// parallel runs would race and interleave runs meaninglessly.
var ErrSharedHook = errors.New("core: Config.Hook is per-run; MonteCarloOptions.Forensics records its own traces")

// MonteCarlo executes opts.Runs independent trajectories of cfg in
// parallel and aggregates them streamingly. Each run gets its own seeded
// RNG stream.
//
// Work distribution is an atomic claim index: workers grab the next run
// number with a single fetch-add, so there is no dispatch channel and no
// O(Runs) result buffer. Aggregation is a streaming fold with a bounded
// reorder window: finished runs are deposited into a ring of
// O(workers) slots and folded into the single Result accumulator in
// strict run-index order. Folding in index order makes the floating-point
// reduction identical to a sequential loop — Welford updates are not
// associative, so any scheme that merges per-worker partials in worker
// order would drift with the (nondeterministic) run→worker assignment.
// Here the output is byte-identical for a fixed (cfg, BaseSeed, Runs)
// regardless of worker count, using O(workers) memory instead of the
// former O(Runs) result array.
//
// Backpressure: a worker whose finished run is more than a window ahead
// of the fold frontier waits; the run at the frontier is always either
// being computed or being deposited by some worker (indices are claimed
// in increasing order, one at a time per worker), so the fold always
// advances and no deadlock is possible.
func MonteCarlo(cfg Config, opts MonteCarloOptions) (Result, error) {
	if opts.Runs <= 0 {
		return Result{}, ErrNoRuns
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Obs != nil {
		// A shared RunObserver across parallel runs would race (and a
		// merged Series/SpanLog would interleave runs meaninglessly).
		// Per-run registries come in through Telemetry instead; spans and
		// series belong to single runs (Simulator.Run).
		return Result{}, ErrSharedObs
	}
	fore := opts.Forensics
	if fore != nil && cfg.Hook != nil {
		// Forensics installs its own per-run recorder as the hook; a
		// caller-supplied hook would additionally race across workers.
		return Result{}, ErrSharedHook
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Runs {
		workers = opts.Runs
	}

	tele := opts.Telemetry
	if tele != nil {
		tele.Begin(opts.Runs, workers)
	}

	type slot struct {
		res   RunResult
		reg   *obs.Registry
		post  *forensics.Report
		err   error
		ready bool
	}
	window := 4 * workers
	if window < 8 {
		window = 8
	}
	ring := make([]slot, window)

	var (
		next    atomic.Int64 // next run index to claim
		mu      sync.Mutex   // guards ring, reduced, out, firstErr
		reduced int          // fold frontier: runs folded so far
		out     Result
		runErr  error
		wg      sync.WaitGroup
	)
	cond := sync.NewCond(&mu)

	worker := func(w int) {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= opts.Runs {
				return
			}
			runCfg := cfg
			runCfg.Seed = opts.BaseSeed + uint64(i)
			var reg *obs.Registry
			if tele != nil {
				// Each run records into a private registry; the ordered
				// fold below merges it into the campaign master.
				reg = obs.NewRegistry()
			}
			var rec *trace.Recorder
			var spans *obs.SpanLog
			if fore != nil {
				// Private per-run trace + span taps for the postmortem
				// analysis; Analyze runs after the run, off the hot path.
				rec = trace.NewRecorder()
				spans = obs.NewSpanLog()
				runCfg.Hook = rec.Record
			}
			if reg != nil || spans != nil {
				runCfg.Obs = &obs.RunObserver{Registry: reg, Spans: spans}
			}
			res, err := runOnce(runCfg)
			if tele != nil {
				tele.WorkerRunDone(w)
			}
			var post *forensics.Report
			if fore != nil && err == nil {
				post = forensics.Analyze(rec.Events(), spans.Spans(), forensics.Context{
					OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
					MaxResourcings:        cfg.Faults.MaxResourcings,
				})
			}

			mu.Lock()
			for runErr == nil && i-reduced >= window {
				cond.Wait()
			}
			if runErr != nil {
				mu.Unlock()
				return
			}
			s := &ring[i%window]
			s.res, s.reg, s.post, s.err, s.ready = res, reg, post, err, true
			// Fold the ready prefix in run-index order.
			for {
				cur := &ring[reduced%window]
				if !cur.ready {
					break
				}
				if cur.err != nil {
					runErr = cur.err
					// Fast-forward the claim index so idle workers exit.
					next.Store(int64(opts.Runs))
					break
				}
				out.add(&cur.res)
				if tele != nil {
					tele.FoldRun(cur.res.DataLoss, cur.reg)
				}
				if fore != nil {
					fore.AddRun(cur.post)
				}
				cur.ready = false
				cur.res = RunResult{}
				cur.reg = nil
				cur.post = nil
				reduced++
				if opts.Progress != nil {
					opts.Progress(reduced, opts.Runs)
				}
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker(w)
	}
	wg.Wait()
	if runErr != nil {
		return Result{}, runErr
	}
	out.finish()
	return out, nil
}

// finish converts counters into rates and intervals.
func (r *Result) finish() {
	r.PLoss = r.lossCounts.Estimate()
	r.PLossLo, r.PLossHi = r.lossCounts.Wilson95()
	if r.Runs > 0 {
		r.RedirectionRate /= float64(r.Runs)
	}
}
