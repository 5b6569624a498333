package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/forensics"
	"repro/internal/metrics"
	"repro/internal/replace"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tracer keeps the -trace pass's spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()} //farm:wallclock span timestamps are host time by definition
}

func (t *tracer) now() int64 {
	return int64(time.Since(t.t0)) //farm:wallclock span timestamps are host time by definition
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, traj uint64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Traj: traj, StartNs: t.now()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	t.spans[i].EndNs = t.now()
	return float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e9
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// traceReport is the trace child's result: the per-layer metrics it can
// compute alone, plus what the parent needs to add core.mc_efficiency.
type traceReport struct {
	Trajectories int                `json:"trajectories"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
	MeanRunS     float64            `json:"mean_run_s"`
	Layers       map[string]float64 `json:"layers"`
}

// trajSample is what one traced trajectory measured.
type trajSample struct {
	buildS, runS, tapS, checkS, analyzeS float64
	buildAllocs, runAllocs               float64
	res                                  core.RunResult
	events, spans, posts, unattributed   int
	queueH, transferH                    float64
	violation                            bool
}

// runTracePass runs the workload's first traceK trajectories one at a
// time with a span around each call into a layer's public API, then
// times per-call micro spans on a freshly built cluster, and writes the
// spans to outDir/<workload>/spans.json.
func runTracePass(w workloadDef, cfg core.Config, seed uint64, outDir string) (traceReport, error) {
	rep := traceReport{Trajectories: w.traceK}
	bareSim, err := core.NewSimulator(cfg)
	if err != nil {
		return rep, err
	}
	tr := newTracer()
	samples := make([]trajSample, 0, w.traceK)
	for i := 0; i < w.traceK; i++ {
		traj := seed + uint64(i)
		s, err := traceTrajectory(tr, cfg, bareSim, traj)
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("trajectory %d: %v", traj, err))
		}
		samples = append(samples, s)
	}
	micro, err := microSpans(tr, cfg, seed)
	if err != nil {
		return rep, err
	}
	rep.Layers = layerMetrics(cfg, samples, micro)
	for _, s := range samples {
		rep.MeanRunS += s.runS / float64(len(samples))
	}
	fillSelfTimes(tr.spans)
	return rep, writeSpans(filepath.Join(outDir, w.name, "spans.json"), tr.spans)
}

// clusterConfig mirrors the cluster a trajectory of cfg builds, with a
// harness-chosen placement seed: build cost does not depend on it.
func clusterConfig(cfg core.Config, placementSeed uint64) (cluster.Config, error) {
	v, err := disk.NewVintage("bench", cfg.VintageScale)
	if err != nil {
		return cluster.Config{}, err
	}
	net, err := topology.NewNetwork(cfg.Topology)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Scheme:             cfg.Scheme,
		GroupBytes:         cfg.GroupBytes,
		NumGroups:          cfg.NumGroups(),
		DiskModel:          disk.Model{CapacityBytes: cfg.DiskCapacityBytes, BandwidthMBps: cfg.DiskBandwidthMBps, Vintage: v},
		InitialUtilization: cfg.InitialUtilization,
		PlacementSeed:      placementSeed,
		Net:                net,
	}, nil
}

// traceTrajectory runs trajectory traj under a root span: a standalone
// cluster build, the bare run, the tapped run, the causality check and
// the forensic pass. A returned error is a failed check; the sample is
// still filled as far as it got.
func traceTrajectory(tr *tracer, cfg core.Config, bareSim *core.Simulator, traj uint64) (trajSample, error) {
	var s trajSample
	root := tr.begin("trajectory", traj, -1)
	defer tr.end(root)

	ccfg, err := clusterConfig(cfg, traj)
	if err != nil {
		return s, err
	}
	a0 := mallocs()
	sp := tr.begin("cluster.New", traj, root)
	_, err = cluster.New(ccfg)
	s.buildS = tr.end(sp)
	s.buildAllocs = float64(mallocs() - a0)
	if err != nil {
		return s, err
	}

	a0 = mallocs()
	sp = tr.begin("core.Simulator.Run", traj, root)
	s.res, err = bareSim.Run(traj)
	s.runS = tr.end(sp)
	s.runAllocs = float64(mallocs() - a0)
	if err != nil {
		return s, err
	}

	sp = tr.begin("core.Simulator.Run+taps", traj, root)
	t, err := runTapped(cfg, traj)
	s.tapS = tr.end(sp)
	if err != nil {
		return s, err
	}
	s.events, s.spans = len(t.events), len(t.spans)
	for _, x := range t.spans {
		s.queueH += x.QueueWait
		s.transferH += x.Transfer
	}

	sp = tr.begin("trace.CheckCausality", traj, root)
	causal := trace.CheckCausality(t.events)
	s.checkS = tr.end(sp)
	s.violation = causal != nil

	sp = tr.begin("forensics.Analyze", traj, root)
	post := forensics.Analyze(t.events, t.spans, forensicContext(cfg))
	s.analyzeS = tr.end(sp)
	s.posts = len(post.Posts)
	for _, p := range post.Posts {
		if p.Class == forensics.ClassUnattributed {
			s.unattributed++
		}
	}

	if err := outputsOfRuns([]core.RunResult{t.res}).diff(outputsOfRuns([]core.RunResult{s.res})); err != nil {
		return s, fmt.Errorf("taps changed the trajectory: %v", err)
	}
	return s, verifyTapped(t, causal, post)
}

// Micro-span sizes: enough calls that each span lasts tens of
// milliseconds on every workload's fleet.
const (
	placeCalls     = 20000
	targetCalls    = 50000
	holdOps        = 200000
	shareCalls     = 200000
	rebalanceDisks = 8
)

// microSpans times single layer calls in loops on a freshly built
// cluster of the workload's size and returns per-call costs by metric
// name. The rebalance runs last because it mutates the cluster.
func microSpans(tr *tracer, cfg core.Config, seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	root := tr.begin("micro", seed, -1)
	defer tr.end(root)
	ccfg, err := clusterConfig(cfg, seed)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("micro.build", seed, root)
	cl, err := cluster.New(ccfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	n := cfg.Scheme.N
	groups := uint64(cl.GroupCount())
	h := cl.Hasher()

	buf := make([]int, 0, n)
	sp = tr.begin("placement.PlaceGroupInto", seed, root)
	for g := uint64(0); g < placeCalls; g++ {
		if _, err := h.PlaceGroupInto(cl, groups+g, n, cl.BlockBytes, buf); err != nil {
			return nil, err
		}
	}
	out["placement.place_ns"] = perCall(tr, sp, placeCalls)

	sp = tr.begin("placement.RecoveryTarget", seed, root)
	for i := uint64(0); i < targetCalls; i++ {
		if _, _, err := h.RecoveryTarget(cl, i%groups, int(i)%n, cl.BlockBytes, nil, 0); err != nil {
			return nil, err
		}
	}
	out["placement.recovery_target_ns"] = perCall(tr, sp, targetCalls)

	out["sim.hold_ns"] = holdModel(tr, root, seed, cl.NumDisks())

	d, err := workload.NewDemand(cfg.Demand, cfg.SimHours, cfg.Topology.Racks, seed)
	if err != nil {
		return nil, err
	}
	if d != nil {
		sp = tr.begin("workload.Demand.Share", seed, root)
		sink := 0.0
		for i := 0; i < shareCalls; i++ {
			sink += d.Share(float64(i)*cfg.SimHours/shareCalls, i%cl.NumDisks())
		}
		out["workload.share_ns"] = perCall(tr, sp, shareCalls)
		if sink < 0 {
			return nil, fmt.Errorf("negative demand share")
		}
	}

	ids := cl.AddDisks(rebalanceDisks, 0)
	a0 := mallocs()
	sp = tr.begin("replace.RebalanceOnto", seed, root)
	replace.RebalanceOnto(cl, ids)
	tr.spans[sp].Calls = 1
	out["replace.rebalance_s"] = tr.end(sp)
	out["replace.rebalance_allocs"] = float64(mallocs() - a0)
	return out, nil
}

// perCall closes micro span sp over calls operations and returns ns/call.
func perCall(tr *tracer, sp, calls int) float64 {
	tr.spans[sp].Calls = calls
	return tr.end(sp) * 1e9 / float64(calls)
}

// holdModel times the event kernel's schedule+fire cycle with a standing
// queue of depth events: every fired event schedules its successor an
// exponential delay later (the classic hold model).
func holdModel(tr *tracer, parent int, seed uint64, depth int) float64 {
	eng := sim.New()
	r := rng.New(seed)
	var fire func(now sim.Time)
	fire = func(now sim.Time) { eng.Schedule(now+sim.Time(r.Exp(1)), "hold", fire) }
	for i := 0; i < depth; i++ {
		eng.Schedule(sim.Time(r.Exp(1)), "hold", fire)
	}
	sp := tr.begin("sim.hold", seed, parent)
	for i := 0; i < holdOps; i++ {
		eng.Step()
	}
	return perCall(tr, sp, holdOps)
}

// layerMetrics derives the per-layer ledger from the traced trajectories
// and the micro spans. Metrics of a layer the workload never runs read 0.
func layerMetrics(cfg core.Config, ss []trajSample, micro map[string]float64) map[string]float64 {
	col := func(f func(s trajSample) float64) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return xs
	}
	mean := func(f func(s trajSample) float64) float64 {
		t := 0.0
		for _, s := range ss {
			t += f(s)
		}
		return t / float64(len(ss))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	runs := col(func(s trajSample) float64 { return s.runS })
	build := median(col(func(s trajSample) float64 { return s.buildS }))
	run := median(runs)
	spans := mean(func(s trajSample) float64 { return float64(s.spans) })
	violations := 0.0
	for _, s := range ss {
		if s.violation {
			violations++
		}
	}
	m := map[string]float64{
		"cluster.new_s.p50":             build,
		"cluster.new_share":             ratio(build, run),
		"cluster.new_allocs":            median(col(func(s trajSample) float64 { return s.buildAllocs })),
		"cluster.disks":                 float64(ss[0].res.Disks),
		"cluster.groups":                float64(cfg.NumGroups()),
		"core.run_s.p50":                run,
		"core.run_s.p90":                metrics.Quantile(runs, 0.9),
		"core.loop_s.p50":               median(col(func(s trajSample) float64 { return s.runS - s.buildS })),
		"core.run_allocs.p50":           median(col(func(s trajSample) float64 { return s.runAllocs })),
		"core.planned_drains":           mean(func(s trajSample) float64 { return float64(s.res.PlannedDrains) }),
		"core.fenced_parks":             mean(func(s trajSample) float64 { return float64(s.res.FencedParks) }),
		"recovery.blocks_rebuilt":       mean(func(s trajSample) float64 { return float64(s.res.BlocksRebuilt) }),
		"recovery.rebuilds_per_failure": ratio(mean(func(s trajSample) float64 { return float64(s.res.BlocksRebuilt) }), mean(func(s trajSample) float64 { return float64(s.res.DiskFailures) })),
		"recovery.retries":              mean(func(s trajSample) float64 { return float64(s.res.RebuildRetries) }),
		"recovery.hedges":               mean(func(s trajSample) float64 { return float64(s.res.Hedges) }),
		"recovery.hedge_win_ratio":      ratio(mean(func(s trajSample) float64 { return float64(s.res.HedgeWins) }), mean(func(s trajSample) float64 { return float64(s.res.Hedges) })),
		"recovery.timeouts":             mean(func(s trajSample) float64 { return float64(s.res.RebuildTimeouts) }),
		"recovery.redirections":         mean(func(s trajSample) float64 { return float64(s.res.Redirections) }),
		"recovery.spares_used":          mean(func(s trajSample) float64 { return float64(s.res.SparesUsed) }),
		"recovery.disk_hours":           mean(func(s trajSample) float64 { return s.res.RecoveryDiskHours }),
		"recovery.sim_queue_h.mean":     ratio(mean(func(s trajSample) float64 { return s.queueH }), spans),
		"recovery.sim_transfer_h.mean":  ratio(mean(func(s trajSample) float64 { return s.transferH }), spans),
		"faults.lse_injected":           mean(func(s trajSample) float64 { return float64(s.res.LSEInjected) }),
		"faults.transient_faults":       mean(func(s trajSample) float64 { return float64(s.res.TransientFaults) }),
		"faults.bursts":                 mean(func(s trajSample) float64 { return float64(s.res.Bursts) }),
		"topology.cross_rack_transfers": mean(func(s trajSample) float64 { return float64(s.res.CrossRackTransfers) }),
		"topology.parked":               mean(func(s trajSample) float64 { return float64(s.res.ParkedTransfers) }),
		"workload.degraded_reads":       mean(func(s trajSample) float64 { return float64(s.res.DegradedReads) }),
		"workload.throttle_steps":       mean(func(s trajSample) float64 { return float64(s.res.ThrottleSteps) }),
		"replace.batches":               mean(func(s trajSample) float64 { return float64(s.res.BatchesAdded) }),
		"trace.events":                  mean(func(s trajSample) float64 { return float64(s.events) }),
		"trace.tap_overhead_frac":       ratio(median(col(func(s trajSample) float64 { return s.tapS }))-run, run),
		"trace.check_s":                 median(col(func(s trajSample) float64 { return s.checkS })),
		"trace.violations":              violations,
		"obs.spans":                     spans,
		"forensics.analyze_s":           median(col(func(s trajSample) float64 { return s.analyzeS })),
		"forensics.postmortems":         mean(func(s trajSample) float64 { return float64(s.posts) }),
		"forensics.unattributed":        mean(func(s trajSample) float64 { return float64(s.unattributed) }),
		"workload.share_ns":             0,
	}
	for _, d := range perLayer {
		if v, ok := micro[d.name]; ok {
			m[d.name] = v
		}
	}
	return m
}

// writeSpans writes the pass's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
