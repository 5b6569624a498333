// Package core assembles the paper's system: a discrete-event Monte Carlo
// simulator of a petabyte-scale storage cluster under disk failures, with
// FARM or traditional spare-disk recovery, and the parallel multi-run
// driver that estimates the probability of data loss.
//
// A single Run builds the cluster, samples every drive's failure time from
// the Table 1 hazard, and plays six simulated years: failure → detection
// after the configured latency → rebuild through the chosen recovery
// engine → optional batch replacement of failed drives. The headline
// metric is whether any redundancy group lost data (Figures 3–5, 7, 8);
// secondary metrics include window-of-vulnerability statistics, recovery
// redirection counts (§2.3), and per-disk utilization (Figure 6, Table 3).
package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/redundancy"
	"repro/internal/replace"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/smart"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulated system, defaulting to the paper's base
// parameters (Table 2).
type Config struct {
	// TotalDataBytes is the user data stored, excluding redundancy
	// (paper base: 2 PB).
	TotalDataBytes int64
	// GroupBytes is the user data per redundancy group (paper base:
	// 10 GB; examined 1–100 GB).
	GroupBytes int64
	// Scheme is the redundancy configuration (paper base: two-way
	// mirroring, 1/2).
	Scheme redundancy.Scheme
	// DiskCapacityBytes is per-drive capacity (paper: 1 TB).
	DiskCapacityBytes int64
	// DiskBandwidthMBps is the sustainable per-drive transfer rate
	// (paper: ~80 MB/s).
	DiskBandwidthMBps float64
	// RecoveryMBps is the bandwidth allotted to rebuilds (paper base:
	// 16 MB/s — 20% of the drive; examined 8–40 MB/s).
	RecoveryMBps float64
	// DetectionLatencyHours is the failure-detection delay (paper base:
	// 30 s; examined 0–3600 s).
	DetectionLatencyHours float64
	// InitialUtilization is the build-time fill target (paper: 40%,
	// leaving room for recovered data).
	InitialUtilization float64
	// UseFARM selects distributed recovery; false selects the
	// traditional single-spare baseline.
	UseFARM bool
	// SimHours is the simulated horizon (paper: 6 years, the drives'
	// EODL).
	SimHours float64
	// VintageScale multiplies the Table 1 failure rates (Figure 8(b)
	// uses 2).
	VintageScale float64
	// ReplaceTrigger, when positive, adds a batch of fresh drives each
	// time this fraction of the original population has failed since the
	// last batch (Figure 7 examines 0.02–0.08). Zero disables
	// replacement.
	ReplaceTrigger float64
	// SmartAccuracy, with SmartLeadHours, enables S.M.A.R.T.-style
	// failure prediction (§2.3): that fraction of failures is flagged
	// SmartLeadHours in advance, the flagged drive is excluded from
	// placement and recovery-target choice, and its blocks are drained
	// to healthy drives before it dies. Zero (the paper's base) disables
	// prediction.
	SmartAccuracy  float64
	SmartLeadHours float64
	// Faults configures deterministic fault injection: latent sector
	// errors with optional scrubbing, correlated failure bursts,
	// transient rebuild-read faults, and a finite spare pool. The zero
	// value disables injection entirely and leaves every existing
	// experiment byte-identical for the same seed (the injector draws
	// from its own stream split off the run seed).
	Faults faults.Config
	// Straggler configures the recovery engines' straggler-mitigation
	// layer: the peer-comparison slow-disk detector, hedged duplicate
	// transfers, hard rebuild timeouts, and eviction of persistent
	// stragglers through the suspect/drain path. The zero value disables
	// the layer entirely and leaves every code path untouched.
	Straggler recovery.StragglerPolicy
	// Topology configures the network fabric: disks spread over racks
	// behind oversubscribable ToR uplinks. With a fabric configured,
	// cross-rack rebuild transfers contend for fair-share bandwidth, and
	// the correlated network faults of Faults.Network (switch failures,
	// rack power events, partitions) become schedulable. The zero value
	// disables the fabric entirely and leaves every experiment
	// byte-identical.
	Topology topology.Config
	// Demand configures the foreground user-I/O model (§2.4's fluctuating
	// user requests): a diurnal base load, Poisson burst episodes, and
	// per-rack skew, all drawn on a dedicated stream salted off the run
	// seed. With demand configured, rebuild transfers stretch by the
	// contention of the moment and user reads landing on lost blocks are
	// priced as degraded (k-way reconstruction) latencies. The zero value
	// constructs no model and leaves every experiment byte-identical.
	Demand workload.DemandConfig
	// Throttle selects the recovery QoS policy, the one decision of how
	// much bandwidth rebuilds may take from users: the paper's fixed
	// floor; idle, §2.4's adaptive recovery, which takes whatever a
	// diurnal user load leaves of the drive (never less than FloorMBps);
	// a load-adaptive AIMD with hysteresis; or the deadline-aware variant
	// floored at the minimum repair rate that clears the backlog before
	// the next expected failure. AIMD and deadline require Demand (they
	// react to the fleet user share). The zero value is the fixed policy
	// at RecoveryMBps, the paper's base.
	Throttle workload.ThrottleConfig
	// Maintenance schedules planned fleet operations: periodic proactive
	// drains, rolling-upgrade windows that hold one rack read-only at a
	// time (requires Topology), and scheduled capacity growth with
	// heterogeneous drive vintages. The zero value schedules nothing.
	Maintenance MaintenanceConfig
	// Seed drives all randomness of the run. Run and MonteCarlo set it,
	// so it is not part of a scenario (PatchConfig).
	Seed uint64 `json:"-"` //farm:anyvalue every uint64 is a valid seed; runs differ, none misbehave
	// CollectUtilization records per-disk used bytes at build time and
	// at the horizon (Figure 6 / Table 3); costs two []int64 copies.
	CollectUtilization bool
	// Hook, when non-nil, receives every simulator event (failures,
	// detections, rebuilds, losses, warnings, batches) as it happens.
	// Used by cmd/farmtrace; nil costs nothing.
	Hook func(trace.Event) `json:"-"`
	// Obs, when non-nil, attaches the flight recorder: a metrics
	// Registry receiving every run outcome at the horizon, a span sink
	// receiving one lifecycle span per block rebuild, and a Series of
	// periodic system-state samples. All instruments are read-only
	// observers — an attached recorder leaves the run's RunResult (and,
	// modulo the two span-lifecycle trace kinds, its transcript)
	// byte-identical. Nil costs nothing.
	Obs *obs.RunObserver `json:"-"`
}

// DefaultConfig returns the paper's Table 2 base system.
func DefaultConfig() Config {
	return Config{
		TotalDataBytes:        2 * disk.PB,
		GroupBytes:            10 * disk.GB,
		Scheme:                redundancy.Scheme{M: 1, N: 2},
		DiskCapacityBytes:     disk.TB,
		DiskBandwidthMBps:     80,
		RecoveryMBps:          16,
		DetectionLatencyHours: 30.0 / 3600,
		InitialUtilization:    0.4,
		UseFARM:               true,
		SimHours:              disk.EODLHours,
		VintageScale:          1,
		Seed:                  1,
	}
}

// Validate checks the configuration. Every float field rejects NaN and
// ±Inf with a message naming the field before the range checks run, so a
// corrupted sweep config fails loudly instead of poisoning a simulation.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DiskBandwidthMBps", c.DiskBandwidthMBps},
		{"RecoveryMBps", c.RecoveryMBps},
		{"DetectionLatencyHours", c.DetectionLatencyHours},
		{"InitialUtilization", c.InitialUtilization},
		{"SimHours", c.SimHours},
		{"VintageScale", c.VintageScale},
		{"ReplaceTrigger", c.ReplaceTrigger},
		{"SmartAccuracy", c.SmartAccuracy},
		{"SmartLeadHours", c.SmartLeadHours},
	} {
		if err := faults.CheckFinite("core: "+f.name, f.v); err != nil {
			return err
		}
	}
	switch {
	case c.TotalDataBytes <= 0:
		return errors.New("core: non-positive total data")
	case c.GroupBytes <= 0:
		return errors.New("core: non-positive group size")
	case c.GroupBytes > c.TotalDataBytes:
		return errors.New("core: group larger than total data")
	case c.Scheme.M < 1 || c.Scheme.N <= c.Scheme.M:
		return fmt.Errorf("core: invalid scheme %v", c.Scheme)
	case c.DiskCapacityBytes <= 0:
		return errors.New("core: non-positive disk capacity")
	case c.DiskBandwidthMBps <= 0:
		return errors.New("core: non-positive disk bandwidth")
	case c.RecoveryMBps <= 0:
		return errors.New("core: non-positive recovery bandwidth")
	case c.RecoveryMBps > c.DiskBandwidthMBps:
		return errors.New("core: recovery bandwidth exceeds disk bandwidth")
	case c.DetectionLatencyHours < 0:
		return errors.New("core: negative detection latency")
	case c.InitialUtilization <= 0 || c.InitialUtilization > 1:
		return errors.New("core: initial utilization out of (0,1]")
	case c.SimHours <= 0:
		return errors.New("core: non-positive horizon")
	case c.VintageScale <= 0:
		return errors.New("core: non-positive vintage scale")
	case c.ReplaceTrigger < 0 || c.ReplaceTrigger >= 1:
		return errors.New("core: replace trigger out of [0,1)")
	case c.SmartAccuracy < 0 || c.SmartAccuracy > 1:
		return errors.New("core: smart accuracy out of [0,1]")
	case c.SmartLeadHours < 0:
		return errors.New("core: negative smart lead")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if err := c.Demand.Validate(); err != nil {
		return err
	}
	if err := c.Throttle.Validate(); err != nil {
		return err
	}
	if err := c.Maintenance.Validate(); err != nil {
		return err
	}
	if c.Throttle.ReactsToLoad() && !c.Demand.Enabled() {
		return errors.New("core: throttle policy " + c.Throttle.Policy + " needs a demand model (set Demand.BaseShare)")
	}
	if c.Throttle.FloorMBps > c.DiskBandwidthMBps {
		return errors.New("core: throttle floor exceeds disk bandwidth")
	}
	if c.Throttle.MaxMBps > c.DiskBandwidthMBps {
		return errors.New("core: throttle ceiling exceeds disk bandwidth")
	}
	if c.Maintenance.UpgradeEveryHours > 0 && !c.Topology.Enabled() {
		return errors.New("core: rolling upgrades need a topology (set Topology.Racks)")
	}
	if c.Faults.Network.Enabled() && !c.Topology.Enabled() {
		return errors.New("core: network faults need a topology (set Topology.Racks)")
	}
	if c.Topology.RackAware && c.Topology.Racks < c.Scheme.N {
		return errors.New("core: rack-aware placement needs at least N racks")
	}
	if err := c.Obs.Validate(); err != nil {
		return err
	}
	return c.Faults.Validate()
}

// NumGroups returns the redundancy-group count the config implies.
func (c Config) NumGroups() int {
	n := int(c.TotalDataBytes / c.GroupBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// ThrottlePolicy builds the run's recovery-rate policy: cfg.Throttle, or
// the paper's fixed RecoveryMBps reservation when no throttle is set.
func (c Config) ThrottlePolicy() (workload.ThrottlePolicy, error) {
	tc := c.Throttle
	if !tc.Enabled() {
		tc = workload.ThrottleConfig{Policy: workload.PolicyFixed, FloorMBps: c.RecoveryMBps}
	}
	return workload.NewThrottle(tc, c.DiskBandwidthMBps)
}

// diskModel materializes the drive model, applying the vintage scale.
func (c Config) diskModel() (disk.Model, error) {
	v, err := disk.NewVintage(fmt.Sprintf("table1-x%.2g", c.VintageScale), c.VintageScale)
	if err != nil {
		return disk.Model{}, err
	}
	return disk.Model{
		CapacityBytes: c.DiskCapacityBytes,
		BandwidthMBps: c.DiskBandwidthMBps,
		Vintage:       v,
	}, nil
}

// RunResult reports one six-year trajectory: the run's event counters
// (the embedded obs.Tally, each written once per event by the layer that
// owns it) plus the floats derived at the horizon from the recovery
// engine's distribution accumulators. The outcome table (outcome.go)
// folds it into a Monte Carlo Result and exports it to a registry.
type RunResult struct {
	obs.Tally
	// DataLoss is true if any group lost data during the run.
	DataLoss bool
	// MeanWindowHours is the mean window of vulnerability (failure to
	// block restored); MaxWindowHours is the worst observed window.
	// WindowP50Hours/WindowP99Hours are streaming-quantile estimates of
	// the same per-block windows (the rebuild-time tail the fail-slow
	// experiment reports). All zero when no block was rebuilt.
	MeanWindowHours float64
	MaxWindowHours  float64
	WindowP50Hours  float64
	WindowP99Hours  float64
	// RecoveryDiskHours is the disk-hours consumed by rebuild transfers
	// (two drives per transfer) — the degraded-mode interference budget.
	RecoveryDiskHours float64
	// Degraded-read latency in milliseconds (zero unless cfg.Demand is
	// enabled): mean/median/p99/max over the user reads served by
	// reconstruction during a window of vulnerability, and the
	// counterfactual healthy-read p99 sampled at the same instants.
	DegradedReadMeanMs float64
	DegradedReadP50Ms  float64
	DegradedReadP99Ms  float64
	DegradedReadMaxMs  float64
	HealthyReadP99Ms   float64
	// ThrottleMeanMBps is the mean recovery rate the QoS policy granted
	// across decision points (zero unless cfg.Throttle is set).
	ThrottleMeanMBps float64
	// InitialUsedBytes and FinalUsedBytes are per-disk-slot utilization
	// snapshots, present only when CollectUtilization is set. Final
	// covers all slots ever provisioned (0 for dead drives).
	InitialUsedBytes []int64
	FinalUsedBytes   []int64
	// Disks is the initial drive population.
	Disks int
}

// Simulator executes single runs of a Config.
type Simulator struct {
	cfg Config
}

// NewSimulator validates the config and returns a runner.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Run simulates one trajectory with the given seed (overriding cfg.Seed).
func (s *Simulator) Run(seed uint64) (RunResult, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return runOnce(cfg)
}

// Stream-isolation salts. Every subsystem that draws randomness derives
// its own stream as cfg.Seed XOR a private salt, so enabling one
// subsystem never perturbs another's draws (the property the golden
// transcripts pin). farmlint's rngsalt analyzer proves no two salts in
// the import closure collide; see also degradedReadSalt (maintenance.go),
// demandSeedSalt (workload), and netSeedSalt (faults).
const (
	// placementSeedSalt isolates placement from the failure process.
	placementSeedSalt = 0xfa57_feed_c0de_f00d
	// faultSeedSalt isolates fault injection, so the zero Faults config
	// leaves the base simulation's draws untouched.
	faultSeedSalt = 0xbad5_ec70_bad5_ec70
)

func runOnce(cfg Config) (RunResult, error) {
	st, err := build(cfg)
	if err != nil {
		return RunResult{}, err
	}
	return st.play(), nil
}

// build constructs one run: the cluster, the recovery engine and every
// process armed for its first event. Nothing has been simulated yet.
func build(cfg Config) (*runState, error) {
	model, err := cfg.diskModel()
	if err != nil {
		return nil, err
	}
	net, err := topology.NewNetwork(cfg.Topology)
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{
		Scheme:             cfg.Scheme,
		GroupBytes:         cfg.GroupBytes,
		NumGroups:          cfg.NumGroups(),
		DiskModel:          model,
		InitialUtilization: cfg.InitialUtilization,
		PlacementSeed:      cfg.Seed ^ placementSeedSalt,
		Net:                net,
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}

	throttle, err := cfg.ThrottlePolicy()
	if err != nil {
		return nil, err
	}
	demand, err := workload.NewDemand(cfg.Demand, cfg.SimHours, cfg.Topology.Racks, cfg.Seed)
	if err != nil {
		return nil, err
	}

	eng := sim.New()
	sched := recovery.NewScheduler(eng, cl.NumDisks())

	res := &RunResult{Disks: cl.NumDisks()}
	if cfg.CollectUtilization {
		res.InitialUsedBytes = cl.UsedBytesAll()
	}

	st := &runState{
		cfg:     cfg,
		cl:      cl,
		eng:     eng,
		sched:   sched,
		random:  rng.New(cfg.Seed),
		res:     res,
		monitor: smart.Monitor{Accuracy: cfg.SmartAccuracy, LeadHours: cfg.SmartLeadHours},
		net:     net,
		demand:  demand,
		// Replacement batches trigger on failures of the original
		// population fraction.
		originalDisks: cl.NumDisks(),
	}
	st.bindHandlers()

	env := recovery.Env{
		Cluster:   cl,
		Sim:       eng,
		Sched:     sched,
		Throttle:  throttle,
		Tally:     &res.Tally,
		Straggler: cfg.Straggler,
		Net:       net,
		Obs:       cfg.Obs,
		Observer:  cfg.Hook,
	}
	if cfg.Straggler.Enabled {
		env.Evict = st.onSlowEvicted
	}
	if demand != nil {
		// Cross-rack reconstruction pays the oversubscribed spine: the
		// degraded-read stretch is the oversubscription ratio itself.
		cross := 1.0
		if cfg.Topology.Enabled() && cfg.Topology.OversubscriptionRatio > 1 {
			cross = cfg.Topology.OversubscriptionRatio
		}
		env.Foreground = &workload.Foreground{
			Demand:          demand,
			Reads:           rng.New(cfg.Seed ^ degradedReadSalt),
			DiskMBps:        cfg.DiskBandwidthMBps,
			KFactor:         float64(cfg.Scheme.M),
			CrossRackFactor: cross,
			MTTFHours:       fleetMTTFHours(cfg.VintageScale, cl.NumDisks()),
		}
	}
	// Fault injection rides on its own stream split off the run seed, so
	// the zero config leaves the base simulation untouched.
	if cfg.Faults.Enabled() {
		inj, err := faults.NewInjector(cfg.Faults, cfg.Seed^faultSeedSalt)
		if err != nil {
			return nil, err
		}
		inj.SetDiscoveryHandler(st.onLatentDiscovered)
		st.inj = inj
		env.Faults = inj
	}
	if cfg.UseFARM {
		st.engine = recovery.NewFARM(env)
	} else {
		st.engine = recovery.NewSpareDisk(env, func(now sim.Time) int {
			ids := cl.AddDisks(1, float64(now))
			st.joined(ids)
			return ids[0]
		}, cfg.Faults.SparePoolSize)
	}

	if demand != nil {
		st.scheduleDemandBurst(0)
	}
	if cfg.Maintenance.Enabled() {
		st.scheduleMaintenance()
	}
	// Seed the failure process for the initial population.
	for id := 0; id < cl.NumDisks(); id++ {
		st.scheduleFailure(id)
	}
	if st.inj != nil {
		if cfg.Faults.LSERatePerDiskHour > 0 {
			for id := 0; id < cl.NumDisks(); id++ {
				st.scheduleLSE(id)
			}
			if cfg.Faults.ScrubIntervalHours > 0 {
				st.every("scrub", func() float64 { return st.cfg.Faults.ScrubIntervalHours }, st.scrub)
			}
		}
		st.every("burst", st.inj.NextBurstGap, st.burst)
		if net != nil && cfg.Faults.Network.Enabled() {
			st.every("switch-fail", st.inj.NextSwitchFailGap, st.switchFail)
			st.every("rack-power", st.inj.NextPowerEventGap, st.powerEvent)
			st.every("partition", st.inj.NextPartitionGap, st.partition)
		}
		if cfg.Faults.FailSlow.Enabled() {
			if cfg.Faults.FailSlow.OnsetRatePerDiskHour > 0 {
				for id := 0; id < cl.NumDisks(); id++ {
					st.scheduleSlowOnset(id)
				}
			}
			st.every("slow-burst", st.inj.NextSlowBurstGap, st.slowBurst)
		}
	}
	if cfg.Obs != nil && cfg.Obs.Series != nil {
		// Baseline sample at t=0, then one per cadence until the horizon.
		st.takeSample(0)
		st.every("obs-sample", func() float64 { return st.cfg.Obs.SampleEveryHours }, st.takeSample)
	}

	return st, nil
}

// play simulates the built run to its horizon and returns its result.
func (st *runState) play() RunResult {
	cfg, cl, res := st.cfg, st.cl, st.res
	st.eng.RunUntil(sim.Time(cfg.SimHours))

	es := st.engine.Stats()
	res.DataLoss = cl.LostGroups > 0
	res.LostGroups = cl.LostGroups
	res.MeanWindowHours = es.Window.Mean()
	res.MaxWindowHours = es.Window.Max()
	res.WindowP50Hours = es.WindowP50.Value()
	res.WindowP99Hours = es.WindowP99.Value()
	res.RecoveryDiskHours = st.sched.BusyHours
	res.DegradedReadMeanMs = es.DegradedMs.Mean()
	res.DegradedReadMaxMs = es.DegradedMs.Max()
	res.DegradedReadP50Ms = es.DegradedP50.Value()
	res.DegradedReadP99Ms = es.DegradedP99.Value()
	res.HealthyReadP99Ms = es.HealthyP99.Value()
	if cfg.Throttle.Enabled() {
		res.ThrottleMeanMBps = es.ThrottleMBps.Mean()
	}
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		st.exportHorizon(cfg.Obs.Registry)
	}
	if cfg.CollectUtilization {
		res.FinalUsedBytes = cl.UsedBytesAll()
	}
	return *res
}

// runState wires the event handlers of one run.
type runState struct {
	cfg    Config
	cl     *cluster.Cluster
	eng    *sim.Engine
	sched  *recovery.Scheduler
	random *rng.Source
	engine recovery.Engine
	res    *RunResult

	originalDisks    int
	failedSinceBatch int
	monitor          smart.Monitor
	// inj, when non-nil, is the fault injector of the run (cfg.Faults
	// enabled). Its randomness lives on a separate stream.
	inj *faults.Injector
	// net, when non-nil, is the run's network fabric (cfg.Topology
	// enabled); rack outages and heals route through it.
	net *topology.Network
	// demand, when non-nil, is the run's foreground-load model
	// (cfg.Demand enabled); its burst schedule drives the marker events
	// and the horizon gauge.
	demand *workload.Demand
	// Maintenance cursors: the round-robin drain position, and the
	// upgrade/growth window counts (the next upgrade rack and the vintage
	// compounding exponent).
	drainCursor  int
	upgradeCount int
	growthCount  int
	// fenced holds, per rack, the drives its open upgrade window fenced
	// (reused window to window); nil until the first window opens.
	fenced [][]int
	// plannedDrain marks drives sent through a maintenance drain window,
	// whose eventual retirement counts toward the replacement batch (a
	// planned drain is the front half of a drive swap). Nil until the
	// first window opens.
	plannedDrain map[int]bool
	// rebalance keeps the replacement and growth batches' migration
	// scratch across the run's batches.
	rebalance replace.Rebalancer

	// The per-disk event handlers, bound once per run as method values
	// (bindHandlers). Each event carries its disk id as the
	// sim.ScheduleArg argument, so arming one allocates nothing.
	// demandFn is the demand-burst marker's, whose argument is the
	// burst's index, upgradeEndFn the upgrade-end timer's, whose
	// argument is the rack, and healFn and falseDeadFn the outage
	// timers', whose argument is the rack and its outage epoch
	// (outageArg).
	failFn, warnFn, detectFn, drainFn, lseFn, onsetFn, slowHitFn, slowRecoverFn func(now sim.Time, arg int)
	demandFn, upgradeEndFn, healFn, falseDeadFn                                 func(now sim.Time, arg int)
	// detects holds the failures awaiting detection and drains the
	// drain-block transfers in flight, each oldest first. A detection
	// fires DetectionLatencyHours after its failure and a transfer one
	// block time after it starts, both constants of the run, and the
	// kernel fires equal-time events in scheduling order, so each kind
	// fires in the order of its queue. A queue rather than a per-disk
	// record, because one drive may run two drain chains at once (a
	// planned drain, then a S.M.A.R.T. warning).
	detects fifo[pendingDetect]
	drains  fifo[drainRecord]
}

// pendingDetect is one failure awaiting its detection event: the failed
// drive and the blocks FailDisk unlinked from it.
type pendingDetect struct {
	id   int
	lost []cluster.BlockRef
}

// drainRecord is one drain-block transfer in flight: block ref moving
// off drive id onto target.
type drainRecord struct {
	id, target int
	ref        cluster.BlockRef
}

// fifo is a queue of the records of events that fire in the order they
// were scheduled. Its array is allocated on the first push and reused
// from then on.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide the live records down instead of growing the array.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// bindHandlers binds the per-disk event handlers once per run.
func (st *runState) bindHandlers() {
	st.failFn = st.onDiskFailure
	st.warnFn = st.onSmartWarning
	st.detectFn = st.onDetect
	st.drainFn = st.onDrainBlock
	st.lseFn = st.onLSE
	st.onsetFn = st.onSlowOnset
	st.slowHitFn = st.applySlowOnset
	st.demandFn = st.onDemandBurst
	st.upgradeEndFn = st.endUpgrade
	// Timers that only fault injection or a fabric arms are bound only
	// for runs that have them: each method value costs an allocation.
	if st.cfg.Faults.Enabled() {
		st.slowRecoverFn = st.onSlowRecover
	}
	if st.net != nil {
		st.healFn = st.onRackHeal
		st.falseDeadFn = st.onFalseDead
	}
}

// process is one recurring fleet-wide event chain (see every).
type process struct {
	st    *runState
	label string
	gap   func() float64
	fire  func(now sim.Time)
	// tick is the arrival callback, bound once so re-arming allocates
	// nothing.
	tick func(now sim.Time)
}

// every starts a recurring fleet-wide process: it draws the gap to the
// first arrival now, queues the arrival under label unless it falls past
// the horizon (which also covers a disabled, +Inf gap), and after each
// fire draws the next gap and re-arms the same way.
func (st *runState) every(label string, gap func() float64, fire func(now sim.Time)) {
	p := &process{st: st, label: label, gap: gap, fire: fire}
	p.tick = func(now sim.Time) {
		p.fire(now)
		p.arm()
	}
	p.arm()
}

// arm draws the gap to the process's next arrival and queues it.
func (p *process) arm() {
	at := p.st.eng.Now() + sim.Time(p.gap())
	if float64(at) > p.st.cfg.SimHours {
		return
	}
	p.st.eng.Schedule(at, p.label, p.tick)
}

// takeSample appends one read-only system-state snapshot to the
// configured series (the "obs-sample" process). The sampler rides the
// regular event queue, so an enabled sampler shifts engine sequence
// numbers uniformly but never reorders, adds, or removes simulation
// work — RunResult stays byte-identical.
func (st *runState) takeSample(now sim.Time) {
	st.cfg.Obs.Series.Add(st.snapshot(float64(now)))
}

// snapshot assembles one Sample from cluster, scheduler, and engine
// state. Strictly read-only.
func (st *runState) snapshot(now float64) obs.Sample {
	s := obs.Sample{
		T:               now,
		ActiveRebuilds:  st.engine.InFlight(),
		QueuedTransfers: st.sched.QueuedTransfers(),
		BusyDisks:       st.sched.BusyDisks(),
		LostGroups:      st.cl.LostGroups,
		SparePoolFree:   -1,
	}
	// Each running transfer occupies a source/target pair; the pair moves
	// data at the per-disk rate of the throttle grant in force.
	s.RecoveryMBps = float64(s.BusyDisks/2) * st.engine.GrantMBps()
	// Only damaged groups carry materialized state; healthy groups need
	// no visit, so the scan scales with concurrent damage, not fleet
	// size. The counts are commutative sums, so record order is free.
	n := int32(st.cl.Cfg.Scheme.N)
	st.cl.ForEachDamaged(func(_ int32, avail int32, lost bool) {
		if lost || avail >= n {
			return
		}
		s.DegradedGroups++
		switch n - avail {
		case 1:
			s.Missing1++
		case 2:
			s.Missing2++
		default:
			s.Missing3Plus++
		}
	})
	for id := range st.cl.Disks {
		d := st.cl.Disks[id]
		if d.State != disk.Alive {
			continue
		}
		s.AliveDisks++
		if d.Slowdown > 1 {
			s.SlowDisks++
		}
		if st.cl.IsSuspect(id) {
			s.SuspectDisks++
		}
	}
	s.EvictedSlow = st.res.SlowEvicted
	if sp, ok := st.engine.(*recovery.SpareDisk); ok {
		s.SparePoolFree, s.SpareQueue = sp.SparePoolFree()
	}
	return s
}

// emit forwards a trace event to the configured hook, if any.
func (st *runState) emit(e trace.Event) {
	if st.cfg.Hook != nil {
		st.cfg.Hook(e)
	}
}

// scheduleFailure samples the drive's death and queues the event. Deaths
// beyond the horizon are not scheduled (RunUntil would skip them anyway;
// this keeps the queue small). With a S.M.A.R.T. monitor configured, a
// predicted failure also queues a warning that starts a proactive drain.
//
//farm:hotpath armed once per drive that joins the fleet
func (st *runState) scheduleFailure(id int) {
	d := st.cl.Disks[id]
	at := d.SampleFailureTime(st.random, float64(st.eng.Now()))
	if at > st.cfg.SimHours {
		return
	}
	st.eng.ScheduleArg(sim.Time(at), "disk-fail", st.failFn, id)
	if warnAt, ok := st.monitor.Predict(st.random, float64(st.eng.Now()), at); ok {
		st.res.PredictedFailures++
		st.eng.ScheduleArg(sim.Time(warnAt), "smart-warning", st.warnFn, id)
	}
}

// onSmartWarning marks the drive suspect and begins draining its blocks
// to healthy drives, one block at a time at the recovery bandwidth
// (a single drive sources the whole drain, so it serializes).
func (st *runState) onSmartWarning(now sim.Time, id int) {
	if st.cl.Disks[id].State != disk.Alive {
		return // died before the warning fired (lead clipped to now)
	}
	st.cl.MarkSuspect(id)
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindSmartWarn, Disk: int32(id)})
	st.drainStep(now, id)
}

// drainStep moves the next block off a suspect drive, then re-arms.
//
//farm:hotpath one step per drained block
func (st *runState) drainStep(now sim.Time, id int) {
	if st.cl.Disks[id].State != disk.Alive {
		return // the drive died mid-drain; normal recovery takes over
	}
	blocks := st.cl.BlocksOn(id)
	if len(blocks) == 0 {
		// Fully drained: retire the drive before it fails in service.
		st.cl.RetireDisk(id)
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDrained, Disk: int32(id)})
		// A maintenance-planned drain is the front half of a drive swap:
		// the retirement counts toward the replacement batch exactly like
		// a failure, or repeated drain windows would starve the fleet of
		// capacity. S.M.A.R.T. drains keep the seed semantics (only real
		// failures count) — they retire moribund drives, not healthy ones,
		// so they cannot shrink the fleet faster than failures would.
		if st.plannedDrain[id] {
			delete(st.plannedDrain, id)
			st.maybeReplace(now)
		}
		return
	}
	ref := blocks[0]
	group := int(ref.Group)
	exclude := st.cl.BuddyExcludes(group)
	target, _, err := st.cl.Hasher().RecoveryTarget(
		st.cl, uint64(group), int(ref.Rep), st.cl.BlockBytes, exclude, 0)
	if err != nil {
		return // nowhere to drain to; leave the blocks for recovery
	}
	transfer := sim.Time(disk.RebuildHours(st.cl.BlockBytes, st.cfg.RecoveryMBps))
	st.drains.push(drainRecord{id: id, target: target, ref: ref})
	st.eng.ScheduleArg(now+transfer, "drain-block", st.drainFn, id)
}

// onDrainBlock completes drive id's oldest drain-block transfer and
// steps its drain on.
func (st *runState) onDrainBlock(done sim.Time, id int) {
	rec := st.drains.pop()
	if rec.id != id {
		panic(fmt.Sprintf("core: drain transfer of disk %d completed, but the oldest in flight is disk %d", id, rec.id))
	}
	if st.cl.Disks[id].State != disk.Alive {
		return
	}
	// The block may have been lost meanwhile via a buddy failure
	// marking this group dead; MoveBlock checks residency itself.
	if st.cl.GroupDiskOf(int(rec.ref.Group), int(rec.ref.Rep)) == int32(id) && st.cl.MoveBlock(rec.ref, rec.target) {
		st.res.DrainedBlocks++
	}
	st.drainStep(done, id)
}

// onDiskFailure plays one drive death: cluster bookkeeping, in-flight
// rebuild fix-ups, delayed detection, and the replacement policy.
func (st *runState) onDiskFailure(now sim.Time, id int) {
	st.failDiskAt(now, id, now)
}

// failDiskAt is onDiskFailure with an explicit underlying failure time:
// a false-dead declaration backdates failedAt to the instant the rack
// went dark (that is when the data became unavailable), while the
// handlers and detection delay run from now.
//
//farm:hotpath once per drive death
func (st *runState) failDiskAt(now sim.Time, id int, failedAt sim.Time) {
	if st.cl.Disks[id].State != disk.Alive {
		return // already dead or retired (defensive)
	}
	lost, newlyDead := st.cl.FailDisk(id, float64(failedAt))
	st.res.DiskFailures++
	if st.inj != nil {
		// Undiscovered latent errors on the dead drive are moot: the
		// whole-disk loss supersedes them.
		st.inj.DropDisk(id)
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindDiskFail, Disk: int32(id),
		N: int32(len(lost))})
	if newlyDead > 0 {
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: int32(id),
			N: int32(newlyDead)})
	}
	st.engine.HandleFailure(now, id)
	st.detects.push(pendingDetect{id: id, lost: lost})
	st.eng.ScheduleArg(now+sim.Time(st.cfg.DetectionLatencyHours), "detect", st.detectFn, id)
	st.maybeReplace(now)
}

// onDetect is drive id's failure detection: it takes the oldest pending
// detection, which must be id's, and hands its lost blocks to the
// recovery engine with the failure time FailDisk recorded.
//
//farm:hotpath once per drive death
func (st *runState) onDetect(now sim.Time, id int) {
	p := st.detects.pop()
	if p.id != id {
		panic(fmt.Sprintf("core: detection of disk %d fired, but the oldest pending detection is disk %d", id, p.id))
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindDetect, Disk: int32(id)})
	st.engine.HandleDetection(now, id, sim.Time(st.cl.Disks[id].FailedAt), p.lost)
}

// joined starts the drives ids, just added to the cluster: the engine's
// per-disk tables grow to cover them, then each drive's failure process
// and, when injection configures them, its latent-error and fail-slow
// onset processes start. Every drive that joins after the start of the
// run (spare, replacement batch, growth batch) starts here.
func (st *runState) joined(ids []int) {
	st.engine.Grow(st.cl.NumDisks())
	for _, id := range ids {
		st.scheduleFailure(id)
		if st.inj != nil && st.cfg.Faults.LSERatePerDiskHour > 0 {
			st.scheduleLSE(id)
		}
		if st.inj != nil && st.cfg.Faults.FailSlow.OnsetRatePerDiskHour > 0 {
			st.scheduleSlowOnset(id)
		}
	}
}

// scheduleSlowOnset samples the drive's next fail-slow onset and queues
// it; on firing, the drive degrades (a degraded drive can degrade again
// after recovering) and the process re-arms. It re-arms whatever the
// drive's state, so a dead or retired drive keeps drawing onsets, each a
// no-op, until the horizon.
//
//farm:hotpath re-armed once per onset per drive
func (st *runState) scheduleSlowOnset(id int) {
	at := st.eng.Now() + sim.Time(st.inj.NextSlowOnsetGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.ScheduleArg(at, "failslow-onset", st.onsetFn, id)
}

// onSlowOnset fires drive id's fail-slow onset and re-arms the next.
func (st *runState) onSlowOnset(now sim.Time, id int) {
	st.applySlowOnset(now, id)
	st.scheduleSlowOnset(id)
}

// applySlowOnset degrades one drive: healthy → ×k (slow) or ×k²
// (crawling), with an optional spontaneous recovery scheduled from the
// injector's recovery draw. Dead, retired, or already-degraded drives are
// no-ops — an episode must end before the next one can start.
func (st *runState) applySlowOnset(now sim.Time, id int) {
	d := st.cl.Disks[id]
	if d.State != disk.Alive || d.Slowdown > 1 {
		return
	}
	f := st.inj.DrawSlowSeverity()
	d.Slowdown = f
	st.res.FailSlowOnsets++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindFailSlowOnset, Disk: int32(id),
		X: f})
	if hours, ok := st.inj.DrawSlowRecovery(); ok {
		st.eng.ScheduleArg(now+sim.Time(hours), "failslow-recover", st.slowRecoverFn, id)
	}
}

// onSlowRecover ends drive id's fail-slow episode. Only this timer ends
// an episode, and applySlowOnset starts none while one lasts (every
// severity exceeds 1), so a drive has at most one recovery pending and,
// while alive, is still in the episode that armed it.
func (st *runState) onSlowRecover(now sim.Time, id int) {
	d := st.cl.Disks[id]
	if d.State != disk.Alive || d.Slowdown <= 1 {
		return // died first
	}
	d.Slowdown = 0
	st.res.FailSlowRecoveries++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindFailSlowRecover, Disk: int32(id)})
}

// slowBurst plays one correlated slow-burst (a batch gray-failure
// event: firmware rollout, thermal excursion, a bad rack; the
// "slow-burst" process): the drawn victims degrade spread across the
// burst window.
func (st *runState) slowBurst(now sim.Time) {
	victims := st.aliveVictims(st.inj.SlowBurstSize(), st.inj.SampleSlowVictims)
	for _, victim := range victims {
		st.eng.ScheduleArg(now+sim.Time(st.inj.SlowBurstDelay()), "slow-burst-hit", st.slowHitFn, victim)
	}
	st.res.SlowBursts++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindSlowBurst,
		N: int32(len(victims))})
}

// aliveVictims draws min(k, alive) distinct live drives with sample, the
// injector's draw of k indexes out of n, and returns their ids.
func (st *runState) aliveVictims(k int, sample func(n, k int) []int) []int {
	alive := make([]int, 0, st.cl.AliveDisks())
	for id := range st.cl.Disks {
		if st.cl.Disks[id].State == disk.Alive {
			alive = append(alive, id)
		}
	}
	victims := sample(len(alive), min(k, len(alive)))
	for i, idx := range victims {
		victims[i] = alive[idx]
	}
	return victims
}

// onSlowEvicted fires when the straggler detector condemns a drive: the
// drive is marked suspect (excluded from placement and recovery-target
// choice) and its blocks drain to healthy peers — the same controlled
// exit a S.M.A.R.T. warning takes, so a condemned straggler leaves
// service without a rebuild storm.
func (st *runState) onSlowEvicted(now sim.Time, id int) {
	if st.cl.Disks[id].State != disk.Alive || st.cl.IsSuspect(id) {
		return
	}
	// The engine's observer already traced the "evict-slow" event; this
	// handler only performs the suspect/drain exit.
	st.cl.MarkSuspect(id)
	st.drainStep(now, id)
}

// scheduleLSE samples the drive's next latent-sector-error arrival and
// queues it; on firing, one resident block (chosen uniformly) silently
// becomes unreadable, and the process re-arms while the drive lives.
//
//farm:hotpath re-armed once per latent error per drive
func (st *runState) scheduleLSE(id int) {
	at := st.eng.Now() + sim.Time(st.inj.NextLSEGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.ScheduleArg(at, "lse", st.lseFn, id)
}

// onLSE is one latent-sector-error arrival on drive id.
func (st *runState) onLSE(now sim.Time, id int) {
	if st.cl.Disks[id].State != disk.Alive {
		return // died (or was retired) first; the arrival is moot
	}
	blocks := st.cl.BlocksOn(id)
	if len(blocks) > 0 {
		ref := blocks[st.inj.PickIndex(len(blocks))]
		if st.inj.MarkLatent(id, int(ref.Group), int(ref.Rep)) {
			st.res.LSEInjected++
			st.emit(trace.Event{Time: float64(now), Kind: trace.KindLSE,
				Disk: int32(id), Group: ref.Group, Rep: ref.Rep})
		}
	}
	st.scheduleLSE(id)
}

// onLatentDiscovered fires when a rebuild read hits a latent error on
// (diskID, group, rep): the damaged replica is unlinked (an erasure) and
// its repair is queued through the recovery engine.
func (st *runState) onLatentDiscovered(now sim.Time, diskID, group, rep int) {
	if st.cl.GroupDiskOf(group, rep) != int32(diskID) {
		return // the block moved (drain/rebalance) since the error arrived
	}
	_, newlyDead := st.cl.CorruptBlock(cluster.BlockRef{Group: int32(group), Rep: int32(rep)})
	st.res.LSEDetected++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindLSEDetect,
		Disk: int32(diskID), Group: int32(group), Rep: int32(rep)})
	if newlyDead {
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: int32(diskID),
			N: 1})
		return // beyond repair; in-flight rebuilds of the group will drain
	}
	st.engine.HandleBlockLoss(now, now, diskID, group, rep)
}

// scrub runs one pass of the periodic scrubber (the "scrub" process):
// it discovers all accumulated latent errors and queues each damaged
// replica for proactive repair.
func (st *runState) scrub(now sim.Time) {
	found := 0
	for _, e := range st.inj.TakeLatent() {
		if st.cl.GroupDiskOf(e.Group, e.Rep) != int32(e.Disk) {
			continue // block moved since the error arrived; stale
		}
		found++
		st.res.ScrubFound++
		_, newlyDead := st.cl.CorruptBlock(cluster.BlockRef{Group: int32(e.Group), Rep: int32(e.Rep)})
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindScrubRepair,
			Disk: int32(e.Disk), Group: int32(e.Group), Rep: int32(e.Rep)})
		if newlyDead {
			st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: int32(e.Disk),
				N: 1})
			continue
		}
		st.engine.HandleBlockLoss(now, now, e.Disk, e.Group, e.Rep)
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindScrub,
		N: int32(found)})
}

// burst plays one correlated-failure burst (the "burst" process): the
// drawn victims die spread across the burst window. Victims that die
// naturally first are no-ops (onDiskFailure is defensive).
func (st *runState) burst(now sim.Time) {
	victims := st.aliveVictims(st.inj.BurstSize(), st.inj.SampleVictims)
	for _, victim := range victims {
		st.eng.ScheduleArg(now+sim.Time(st.inj.BurstDelay()), "burst-kill", st.failFn, victim)
	}
	st.res.Bursts++
	st.res.BurstKills += len(victims)
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindBurst,
		N: int32(len(victims))})
}

// switchFail plays one ToR-switch failure (the "switch-fail" process):
// the struck rack goes dark with no scheduled heal (a dead switch needs
// a human; only the false-dead timer ends the outage).
func (st *runState) switchFail(now sim.Time) {
	rack := st.inj.PickRack(st.net.Racks())
	st.res.SwitchFails++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindSwitchFail, Rack: int32(rack)})
	st.rackDown(now, rack, trace.CauseSwitchFail, 0)
}

// powerEvent plays one rack power event (the "rack-power" process): the
// struck rack goes dark until power is restored (drives return with
// their data).
func (st *runState) powerEvent(now sim.Time) {
	rack := st.inj.PickRack(st.net.Racks())
	restore := st.inj.DrawPowerRestore()
	st.res.RackPowerEvents++
	st.rackDown(now, rack, trace.CausePower, restore)
}

// partition plays one transient network partition (the "partition"
// process): the struck rack is unreachable (drives healthy, data intact)
// until the partition heals.
func (st *runState) partition(now sim.Time) {
	rack := st.inj.PickRack(st.net.Racks())
	heal := st.inj.DrawPartitionHeal()
	st.res.Partitions++
	st.rackDown(now, rack, trace.CausePartition, heal)
}

// rackDown takes a rack off the fabric: the engine parks or re-sources
// every rebuild touching it, a heal fires healAfter hours later
// (healAfter <= 0 means no scheduled heal), and the false-dead timer —
// when configured — starts counting toward declaring the rack lost.
// A rack already dark merges the new event into the ongoing outage:
// reachability state and timers are left untouched (the random draws
// were already consumed by the caller, so the stream stays aligned).
func (st *runState) rackDown(now sim.Time, rack int, cause int32, healAfter float64) {
	if !st.net.SetRackUnreachable(rack, float64(now)) {
		return // already dark; events merge into the ongoing outage
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindRackUnreachable,
		Rack: int32(rack), N: cause})
	for id := rack; id < st.cl.NumDisks(); id += st.net.Racks() {
		st.engine.HandleUnreachable(now, id)
	}
	// Epoch-guarded timers: if the rack heals and darkens again, the new
	// outage carries a new epoch and these become stale no-ops.
	arg := st.outageArg(rack)
	if healAfter > 0 {
		st.eng.ScheduleArg(now+sim.Time(healAfter), "rack-heal", st.healFn, arg)
	}
	if fd := st.net.FalseDeadHours(); fd > 0 {
		st.eng.ScheduleArg(now+sim.Time(fd), "false-dead", st.falseDeadFn, arg)
	}
}

// outageArg packs a rack and its current outage epoch into one timer
// argument. The pair must travel with the timer: heal delays are drawn
// per outage, so a rack's heal timers need not fire in the order they
// were armed, and a stale one can fire while a later outage is live.
func (st *runState) outageArg(rack int) int {
	return int(st.net.Epoch(rack))*st.net.Racks() + rack
}

// liveOutage unpacks an outage timer's argument and reports whether its
// outage is still the rack's current one.
func (st *runState) liveOutage(arg int) (rack int, live bool) {
	racks := st.net.Racks()
	rack = arg % racks
	return rack, st.net.RackUnreachable(rack) && int(st.net.Epoch(rack)) == arg/racks
}

// onRackHeal is an outage's heal timer (the "rack-heal" event).
func (st *runState) onRackHeal(now sim.Time, arg int) {
	if rack, live := st.liveOutage(arg); live {
		st.rackHeal(now, rack)
	}
}

// onFalseDead is an outage's false-dead timer (the "false-dead" event).
func (st *runState) onFalseDead(now sim.Time, arg int) {
	if rack, live := st.liveOutage(arg); live {
		st.declareRackDead(now, rack)
	}
}

// rackHeal returns a rack to the fabric and resumes every rebuild
// parked against its disks.
func (st *runState) rackHeal(now sim.Time, rack int) {
	st.net.SetRackReachable(rack)
	st.res.PartitionHeals++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindPartitionHeal, Rack: int32(rack)})
	for id := rack; id < st.cl.NumDisks(); id += st.net.Racks() {
		st.engine.HandleReachable(now, id)
	}
}

// declareRackDead is the false-dead timer firing: the rack has been
// dark past the configured patience, so the control plane writes its
// drives off and re-replicates — trading a rebuild storm (and, if the
// outage was transient, wasted work) for a bounded window of
// vulnerability. The underlying failure time is backdated to the
// instant the rack went dark: that is when the data became
// unavailable. The rack stays unreachable while its drives fail (so
// re-sourcing flees it), then returns to the fabric empty.
func (st *runState) declareRackDead(now sim.Time, rack int) {
	since := sim.Time(st.net.UnreachableSince(rack))
	st.res.FalseDeadRacks++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindFalseDead, Rack: int32(rack)})
	killed := 0
	for id := rack; id < st.cl.NumDisks(); id += st.net.Racks() {
		if st.cl.Disks[id].State == disk.Alive {
			st.failDiskAt(now, id, since)
			killed++
		}
	}
	st.res.FalseDeadDisks += killed
	st.net.SetRackReachable(rack)
	for id := rack; id < st.cl.NumDisks(); id += st.net.Racks() {
		st.engine.HandleReachable(now, id)
	}
}

// maybeReplace applies the Figure 7 batch-replacement policy: once the
// configured fraction of the original population has failed since the
// last batch, inject that many fresh drives and rebalance onto them.
func (st *runState) maybeReplace(now sim.Time) {
	if st.cfg.ReplaceTrigger <= 0 {
		return
	}
	st.failedSinceBatch++
	threshold := replace.Policy{TriggerFraction: st.cfg.ReplaceTrigger}.Threshold(st.originalDisks)
	if st.failedSinceBatch < threshold {
		return
	}
	count := st.failedSinceBatch
	st.failedSinceBatch = 0
	ids := st.cl.AddDisks(count, float64(now))
	st.joined(ids)
	st.res.BatchesAdded++
	st.res.DisksAdded += count
	st.res.MigratedBytes += st.rebalance.Onto(st.cl, ids)
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindBatchAdded,
		N: int32(count)})
}
