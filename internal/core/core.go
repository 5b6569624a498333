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
	// AdaptiveRecovery enables the workload-adaptive bandwidth model of
	// §2.4: recovery receives the guaranteed RecoveryMBps floor at the
	// user-load peak and up to the drive's full idle bandwidth at night,
	// following a diurnal load curve. The paper's base experiments keep
	// this off (fixed reservation).
	AdaptiveRecovery bool
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
	// Throttle selects the recovery QoS policy governing how much
	// bandwidth rebuilds may take from users: the paper's fixed floor, a
	// load-adaptive AIMD with hysteresis, or the deadline-aware variant
	// floored at the minimum repair rate that clears the backlog before
	// the next expected failure. Requires Demand (the policy reacts to
	// the fleet user share). The zero value keeps the static
	// RecoveryMBps / AdaptiveRecovery bandwidth model.
	Throttle workload.ThrottleConfig
	// Maintenance schedules planned fleet operations: periodic proactive
	// drains, rolling-upgrade windows that hold one rack read-only at a
	// time (requires Topology), and scheduled capacity growth with
	// heterogeneous drive vintages. The zero value schedules nothing.
	Maintenance MaintenanceConfig
	// Seed drives all randomness of the run.
	Seed uint64 //farm:anyvalue every uint64 is a valid seed; runs differ, none misbehave
	// CollectUtilization records per-disk used bytes at build time and
	// at the horizon (Figure 6 / Table 3); costs two []int64 copies.
	CollectUtilization bool
	// Hook, when non-nil, receives every simulator event (failures,
	// detections, rebuilds, losses, warnings, batches) as it happens.
	// Used by cmd/farmtrace; nil costs nothing.
	Hook func(trace.Event)
	// Obs, when non-nil, attaches the flight recorder: a metrics
	// Registry receiving every run outcome at the horizon, a SpanLog
	// recording one lifecycle span per block rebuild, and a Series of
	// periodic system-state samples. All instruments are read-only
	// observers — an attached recorder leaves the run's RunResult (and,
	// modulo the two span-lifecycle trace kinds, its transcript)
	// byte-identical. Nil costs nothing.
	Obs *obs.RunObserver
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
	if err := c.Straggler.Validate(); err != nil {
		return err
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
	if c.Throttle.Enabled() && !c.Demand.Enabled() {
		return errors.New("core: throttle policy needs a demand model (set Demand.BaseShare)")
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
	// across decision points (zero unless cfg.Throttle is enabled).
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
	// placementSeedSalt isolates rendezvous placement from the failure
	// process.
	placementSeedSalt = 0xfa57_feed_c0de_f00d
	// faultSeedSalt isolates fault injection, so the zero Faults config
	// leaves the base simulation's draws untouched.
	faultSeedSalt = 0xbad5_ec70_bad5_ec70
)

func runOnce(cfg Config) (RunResult, error) {
	model, err := cfg.diskModel()
	if err != nil {
		return RunResult{}, err
	}
	net, err := topology.NewNetwork(cfg.Topology)
	if err != nil {
		return RunResult{}, err
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
		return RunResult{}, err
	}

	eng := sim.New()
	sched := recovery.NewScheduler(eng, cl.NumDisks())
	random := rng.New(cfg.Seed)

	var res RunResult
	res.Disks = cl.NumDisks()
	if cfg.CollectUtilization {
		res.InitialUsedBytes = cl.UsedBytesAll()
	}

	st := &runState{
		cfg:     cfg,
		cl:      cl,
		eng:     eng,
		sched:   sched,
		random:  random,
		res:     &res,
		monitor: smart.Monitor{Accuracy: cfg.SmartAccuracy, LeadHours: cfg.SmartLeadHours},
	}

	spawn := func(now sim.Time) int {
		ids := cl.AddDisks(1, float64(now))
		sched.Grow(cl.NumDisks())
		st.scheduleFailure(ids[0])
		st.armLSE(ids[0])
		st.armFailSlow(ids[0])
		return ids[0]
	}
	var bw workload.BandwidthModel = workload.Fixed{MBps: cfg.RecoveryMBps}
	if cfg.AdaptiveRecovery {
		d, berr := workload.NewDiurnal(cfg.DiskBandwidthMBps, cfg.RecoveryMBps, 0.8, 14)
		if berr != nil {
			return RunResult{}, berr
		}
		bw = d
	}
	if cfg.Faults.FailSlow.Enabled() {
		// Per-disk degradation view over the expectation model. Only
		// installed when gray failures can actually occur, so a zero
		// fail-slow config keeps the engines' healthy fast path (and the
		// golden transcript) byte-identical.
		bw = workload.Degraded{Base: bw, Slowdown: func(id int) float64 {
			if id < len(cl.Disks) {
				return cl.Disks[id].SlowFactor()
			}
			return 1
		}}
	}
	st.bw = bw
	if cfg.UseFARM {
		st.engine = recovery.NewFARM(cl, eng, sched, bw, &res.Tally)
	} else {
		st.engine = recovery.NewSpareDisk(cl, eng, sched, bw, spawn, &res.Tally)
	}
	if net != nil {
		st.net = net
		st.engine.SetTopology(net)
	}
	demand, derr := workload.NewDemand(cfg.Demand, cfg.SimHours, cfg.Topology.Racks, cfg.Seed)
	if derr != nil {
		return RunResult{}, derr
	}
	if demand != nil {
		st.demand = demand
		pol, terr := workload.NewThrottle(cfg.Throttle)
		if terr != nil {
			return RunResult{}, terr
		}
		// Cross-rack reconstruction pays the oversubscribed spine: the
		// degraded-read stretch is the oversubscription ratio itself.
		cross := 1.0
		if cfg.Topology.Enabled() && cfg.Topology.OversubscriptionRatio > 1 {
			cross = cfg.Topology.OversubscriptionRatio
		}
		st.engine.SetForeground(&workload.Foreground{
			Demand:          demand,
			Policy:          pol,
			Reads:           rng.New(cfg.Seed ^ degradedReadSalt),
			DiskMBps:        cfg.DiskBandwidthMBps,
			KFactor:         float64(cfg.Scheme.M),
			CrossRackFactor: cross,
			MTTFHours:       fleetMTTFHours(cfg.VintageScale, cl.NumDisks()),
		})
		st.scheduleDemandBurst(0)
	}
	if cfg.Maintenance.Enabled() {
		st.scheduleMaintenance()
	}
	if cfg.Obs != nil {
		st.engine.SetObservability(cfg.Obs)
	}
	if cfg.Straggler.Enabled {
		st.engine.SetStraggler(cfg.Straggler, st.onSlowEvicted)
	}
	if cfg.Hook != nil {
		st.engine.SetObserver(func(now sim.Time, kind trace.Kind, group, rep, diskID int) {
			cfg.Hook(trace.Event{
				Time: float64(now), Kind: kind,
				Group: group, Rep: rep, Disk: diskID,
			})
		})
		st.engine.SetDetailObserver(func(now sim.Time, kind trace.Kind, group, rep, diskID int, detail string) {
			cfg.Hook(trace.Event{
				Time: float64(now), Kind: kind,
				Group: group, Rep: rep, Disk: diskID, Detail: detail,
			})
		})
	}

	// Replacement bookkeeping: batches trigger on failures of the
	// original population fraction.
	st.originalDisks = cl.NumDisks()

	// Seed the failure process for the initial population.
	for id := 0; id < cl.NumDisks(); id++ {
		st.scheduleFailure(id)
	}

	// Fault injection rides on its own stream split off the run seed, so
	// the zero config leaves the base simulation untouched.
	if cfg.Faults.Enabled() {
		inj, ierr := faults.NewInjector(cfg.Faults, cfg.Seed^faultSeedSalt)
		if ierr != nil {
			return RunResult{}, ierr
		}
		st.inj = inj
		inj.SetDiscoveryHandler(st.onLatentDiscovered)
		if cfg.Obs != nil && cfg.Obs.Registry != nil {
			inj.SetMetrics(cfg.Obs.FaultMetrics())
		}
		st.engine.SetFaultModel(inj)
		if sp, ok := st.engine.(*recovery.SpareDisk); ok && cfg.Faults.SparePoolSize > 0 {
			eff := inj.Config()
			sp.ConfigureSparePool(eff.SparePoolSize, eff.SpareReplenishHours)
		}
		if cfg.Faults.LSERatePerDiskHour > 0 {
			for id := 0; id < cl.NumDisks(); id++ {
				st.scheduleLSE(id)
			}
			if cfg.Faults.ScrubIntervalHours > 0 {
				st.scheduleScrub()
			}
		}
		st.scheduleBurst()
		if st.net != nil && cfg.Faults.Network.Enabled() {
			st.scheduleSwitchFail()
			st.schedulePowerEvent()
			st.schedulePartition()
		}
		if cfg.Faults.FailSlow.Enabled() {
			if cfg.Faults.FailSlow.OnsetRatePerDiskHour > 0 {
				for id := 0; id < cl.NumDisks(); id++ {
					st.scheduleSlowOnset(id)
				}
			}
			st.scheduleSlowBurst()
		}
	}

	if cfg.Obs != nil && cfg.Obs.Series != nil {
		// Baseline sample at t=0, then one per cadence until the horizon.
		st.takeSample(0)
		st.scheduleSample()
	}

	eng.RunUntil(sim.Time(cfg.SimHours))

	es := st.engine.Stats()
	res.DataLoss = cl.LostGroups > 0
	res.LostGroups = cl.LostGroups
	res.MeanWindowHours = es.Window.Mean()
	res.MaxWindowHours = es.Window.Max()
	res.WindowP50Hours = es.WindowP50.Value()
	res.WindowP99Hours = es.WindowP99.Value()
	res.RecoveryDiskHours = sched.BusyHours
	res.DegradedReadMeanMs = es.DegradedMs.Mean()
	res.DegradedReadMaxMs = es.DegradedMs.Max()
	res.DegradedReadP50Ms = es.DegradedP50.Value()
	res.DegradedReadP99Ms = es.DegradedP99.Value()
	res.HealthyReadP99Ms = es.HealthyP99.Value()
	res.ThrottleMeanMBps = es.ThrottleMBps.Mean()
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		st.exportHorizon(cfg.Obs.Registry)
	}
	if cfg.CollectUtilization {
		res.FinalUsedBytes = cl.UsedBytesAll()
	}
	return res, nil
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
	// bw is the run's bandwidth model, retained for the sampler's
	// in-flight recovery-rate estimate.
	bw workload.BandwidthModel
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
	// plannedDrain marks drives sent through a maintenance drain window,
	// whose eventual retirement counts toward the replacement batch (a
	// planned drain is the front half of a drive swap). Nil until the
	// first window opens.
	plannedDrain map[int]bool
}

// scheduleSample arms the next read-only system-state snapshot. The
// sampler rides the regular event queue, so an enabled sampler shifts
// engine sequence numbers uniformly but never reorders, adds, or removes
// simulation work — RunResult stays byte-identical.
func (st *runState) scheduleSample() {
	at := st.eng.Now() + sim.Time(st.cfg.Obs.SampleEveryHours)
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "obs-sample", func(now sim.Time) {
		st.takeSample(float64(now))
		st.scheduleSample()
	})
}

// takeSample appends one snapshot to the configured series.
func (st *runState) takeSample(now float64) {
	st.cfg.Obs.Series.Add(st.snapshot(now))
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
	// data at the per-disk recovery allotment in force at the instant.
	s.RecoveryMBps = float64(s.BusyDisks/2) * st.bw.RecoveryMBps(now)
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
func (st *runState) scheduleFailure(id int) {
	d := st.cl.Disks[id]
	at := d.SampleFailureTime(st.random, float64(st.eng.Now()))
	if at > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(sim.Time(at), "disk-fail", func(now sim.Time) {
		st.onDiskFailure(now, id)
	})
	if warnAt, ok := st.monitor.Predict(st.random, float64(st.eng.Now()), at); ok {
		st.res.PredictedFailures++
		st.eng.Schedule(sim.Time(warnAt), "smart-warning", func(now sim.Time) {
			st.onSmartWarning(now, id)
		})
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
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindSmartWarn, Disk: id})
	st.drainStep(now, id)
}

// drainStep moves the next block off a suspect drive, then re-arms.
func (st *runState) drainStep(now sim.Time, id int) {
	if st.cl.Disks[id].State != disk.Alive {
		return // the drive died mid-drain; normal recovery takes over
	}
	blocks := st.cl.BlocksOn(id)
	if len(blocks) == 0 {
		// Fully drained: retire the drive before it fails in service.
		st.cl.RetireDisk(id)
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDrained, Disk: id})
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
	st.eng.Schedule(now+transfer, "drain-block", func(done sim.Time) {
		if st.cl.Disks[id].State != disk.Alive {
			return
		}
		// The block may have been lost meanwhile via a buddy failure
		// marking this group dead; MoveBlock checks residency itself.
		if st.cl.GroupDiskOf(group, int(ref.Rep)) == int32(id) && st.cl.MoveBlock(ref, target) {
			st.res.DrainedBlocks++
		}
		st.drainStep(done, id)
	})
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
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindDiskFail, Disk: id,
		Detail: fmt.Sprintf("blocks=%d", len(lost))})
	if newlyDead > 0 {
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: id,
			Detail: fmt.Sprintf("groups=%d", newlyDead)})
	}
	st.engine.HandleFailure(now, id)
	blocks := lost
	st.eng.Schedule(now+sim.Time(st.cfg.DetectionLatencyHours), "detect", func(dnow sim.Time) {
		st.emit(trace.Event{Time: float64(dnow), Kind: trace.KindDetect, Disk: id})
		st.engine.HandleDetection(dnow, id, failedAt, blocks)
	})
	st.maybeReplace(now)
}

// armLSE starts the latent-error arrival process on a (new) drive when
// injection is configured; a no-op otherwise.
func (st *runState) armLSE(id int) {
	if st.inj != nil && st.cfg.Faults.LSERatePerDiskHour > 0 {
		st.scheduleLSE(id)
	}
}

// armFailSlow starts the fail-slow onset process on a (new) drive when
// gray-failure injection is configured; a no-op otherwise.
func (st *runState) armFailSlow(id int) {
	if st.inj != nil && st.cfg.Faults.FailSlow.OnsetRatePerDiskHour > 0 {
		st.scheduleSlowOnset(id)
	}
}

// scheduleSlowOnset samples the drive's next fail-slow onset and queues
// it; on firing, the drive degrades and the process re-arms while the
// drive lives (a degraded drive can degrade again after recovering).
func (st *runState) scheduleSlowOnset(id int) {
	at := st.eng.Now() + sim.Time(st.inj.NextSlowOnsetGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "failslow-onset", func(now sim.Time) {
		st.applySlowOnset(now, id)
		st.scheduleSlowOnset(id)
	})
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
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindFailSlowOnset, Disk: id,
		Detail: fmt.Sprintf("factor=%g", f)})
	if hours, ok := st.inj.DrawSlowRecovery(); ok {
		st.eng.Schedule(now+sim.Time(hours), "failslow-recover", func(rnow sim.Time) {
			if d.State != disk.Alive || d.Slowdown != f {
				return // died first, or this episode was already cleared
			}
			d.Slowdown = 0
			st.res.FailSlowRecoveries++
			st.emit(trace.Event{Time: float64(rnow), Kind: trace.KindFailSlowRecover, Disk: id})
		})
	}
}

// scheduleSlowBurst samples the next correlated slow-burst (a batch
// gray-failure event: firmware rollout, thermal excursion, a bad rack)
// and queues it; on firing, the drawn victims degrade spread across the
// burst window, and the process re-arms.
func (st *runState) scheduleSlowBurst() {
	at := st.eng.Now() + sim.Time(st.inj.NextSlowBurstGap())
	if float64(at) > st.cfg.SimHours {
		return // also covers the disabled (+Inf) case
	}
	st.eng.Schedule(at, "slow-burst", func(now sim.Time) {
		k := st.inj.SlowBurstSize()
		alive := make([]int, 0, st.cl.AliveDisks())
		for id := range st.cl.Disks {
			if st.cl.Disks[id].State == disk.Alive {
				alive = append(alive, id)
			}
		}
		if k > len(alive) {
			k = len(alive)
		}
		hits := 0
		for _, idx := range st.inj.SampleSlowVictims(len(alive), k) {
			victim := alive[idx]
			st.eng.Schedule(now+sim.Time(st.inj.SlowBurstDelay()), "slow-burst-hit", func(bnow sim.Time) {
				st.applySlowOnset(bnow, victim)
			})
			hits++
		}
		st.res.SlowBursts++
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindSlowBurst,
			Detail: fmt.Sprintf("hits=%d", hits)})
		st.scheduleSlowBurst()
	})
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
func (st *runState) scheduleLSE(id int) {
	at := st.eng.Now() + sim.Time(st.inj.NextLSEGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "lse", func(now sim.Time) {
		if st.cl.Disks[id].State != disk.Alive {
			return // died (or was retired) first; the arrival is moot
		}
		blocks := st.cl.BlocksOn(id)
		if len(blocks) > 0 {
			ref := blocks[st.inj.PickIndex(len(blocks))]
			if st.inj.MarkLatent(id, int(ref.Group), int(ref.Rep)) {
				st.res.LSEInjected++
				st.emit(trace.Event{Time: float64(now), Kind: trace.KindLSE,
					Disk: id, Group: int(ref.Group), Rep: int(ref.Rep)})
			}
		}
		st.scheduleLSE(id)
	})
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
		Disk: diskID, Group: group, Rep: rep})
	if newlyDead {
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: diskID,
			Detail: "groups=1"})
		return // beyond repair; in-flight rebuilds of the group will drain
	}
	st.engine.HandleBlockLoss(now, now, diskID, group, rep)
}

// scheduleScrub runs the periodic scrubber: every interval it discovers
// all accumulated latent errors and queues each damaged replica for
// proactive repair.
func (st *runState) scheduleScrub() {
	at := st.eng.Now() + sim.Time(st.cfg.Faults.ScrubIntervalHours)
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "scrub", func(now sim.Time) {
		found := 0
		for _, e := range st.inj.TakeLatent() {
			if st.cl.GroupDiskOf(e.Group, e.Rep) != int32(e.Disk) {
				continue // block moved since the error arrived; stale
			}
			found++
			st.res.ScrubFound++
			_, newlyDead := st.cl.CorruptBlock(cluster.BlockRef{Group: int32(e.Group), Rep: int32(e.Rep)})
			st.emit(trace.Event{Time: float64(now), Kind: trace.KindScrubRepair,
				Disk: e.Disk, Group: e.Group, Rep: e.Rep})
			if newlyDead {
				st.emit(trace.Event{Time: float64(now), Kind: trace.KindDataLoss, Disk: e.Disk,
					Detail: "groups=1"})
				continue
			}
			st.engine.HandleBlockLoss(now, now, e.Disk, e.Group, e.Rep)
		}
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindScrub,
			Detail: fmt.Sprintf("found=%d", found)})
		st.scheduleScrub()
	})
}

// scheduleBurst samples the next correlated-failure burst and queues it;
// on firing, the drawn victims die spread across the burst window, and
// the process re-arms. Victims that die naturally first are no-ops
// (onDiskFailure is defensive).
func (st *runState) scheduleBurst() {
	at := st.eng.Now() + sim.Time(st.inj.NextBurstGap())
	if float64(at) > st.cfg.SimHours {
		return // also covers the disabled (+Inf) case
	}
	st.eng.Schedule(at, "burst", func(now sim.Time) {
		k := st.inj.BurstSize()
		alive := make([]int, 0, st.cl.AliveDisks())
		for id := range st.cl.Disks {
			if st.cl.Disks[id].State == disk.Alive {
				alive = append(alive, id)
			}
		}
		if k > len(alive) {
			k = len(alive)
		}
		kills := 0
		for _, idx := range st.inj.SampleVictims(len(alive), k) {
			victim := alive[idx]
			st.eng.Schedule(now+sim.Time(st.inj.BurstDelay()), "burst-kill", func(bnow sim.Time) {
				st.onDiskFailure(bnow, victim)
			})
			kills++
		}
		st.res.Bursts++
		st.res.BurstKills += kills
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindBurst,
			Detail: fmt.Sprintf("kills=%d", kills)})
		st.scheduleBurst()
	})
}

// scheduleSwitchFail samples the next ToR-switch failure and queues it;
// on firing, the struck rack goes dark with no scheduled heal (a dead
// switch needs a human; only the false-dead timer ends the outage), and
// the process re-arms.
func (st *runState) scheduleSwitchFail() {
	at := st.eng.Now() + sim.Time(st.inj.NextSwitchFailGap())
	if float64(at) > st.cfg.SimHours {
		return // also covers the disabled (+Inf) case
	}
	st.eng.Schedule(at, "switch-fail", func(now sim.Time) {
		rack := st.inj.PickRack(st.net.Racks())
		st.res.SwitchFails++
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindSwitchFail, Rack: rack})
		st.rackDown(now, rack, "switch-fail", 0)
		st.scheduleSwitchFail()
	})
}

// schedulePowerEvent samples the next rack power event and queues it; on
// firing, the struck rack goes dark until power is restored (drives
// return with their data), and the process re-arms.
func (st *runState) schedulePowerEvent() {
	at := st.eng.Now() + sim.Time(st.inj.NextPowerEventGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "rack-power", func(now sim.Time) {
		rack := st.inj.PickRack(st.net.Racks())
		restore := st.inj.DrawPowerRestore()
		st.res.RackPowerEvents++
		st.rackDown(now, rack, "power", restore)
		st.schedulePowerEvent()
	})
}

// schedulePartition samples the next transient network partition and
// queues it; on firing, the struck rack is unreachable (drives healthy,
// data intact) until the partition heals, and the process re-arms.
func (st *runState) schedulePartition() {
	at := st.eng.Now() + sim.Time(st.inj.NextPartitionGap())
	if float64(at) > st.cfg.SimHours {
		return
	}
	st.eng.Schedule(at, "partition", func(now sim.Time) {
		rack := st.inj.PickRack(st.net.Racks())
		heal := st.inj.DrawPartitionHeal()
		st.res.Partitions++
		st.rackDown(now, rack, "partition", heal)
		st.schedulePartition()
	})
}

// rackDown takes a rack off the fabric: the engine parks or re-sources
// every rebuild touching it, a heal fires healAfter hours later
// (healAfter <= 0 means no scheduled heal), and the false-dead timer —
// when configured — starts counting toward declaring the rack lost.
// A rack already dark merges the new event into the ongoing outage:
// reachability state and timers are left untouched (the random draws
// were already consumed by the caller, so the stream stays aligned).
func (st *runState) rackDown(now sim.Time, rack int, cause string, healAfter float64) {
	if !st.net.SetRackUnreachable(rack, float64(now)) {
		return // already dark; events merge into the ongoing outage
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindRackUnreachable,
		Rack: rack, Detail: cause})
	for id := rack; id < st.cl.NumDisks(); id += st.net.Racks() {
		st.engine.HandleUnreachable(now, id)
	}
	// Epoch-guarded timers: if the rack heals and darkens again, the new
	// outage carries a new epoch and these become stale no-ops.
	epoch := st.net.Epoch(rack)
	if healAfter > 0 {
		st.eng.Schedule(now+sim.Time(healAfter), "rack-heal", func(hnow sim.Time) {
			if st.net.RackUnreachable(rack) && st.net.Epoch(rack) == epoch {
				st.rackHeal(hnow, rack)
			}
		})
	}
	if fd := st.net.FalseDeadHours(); fd > 0 {
		st.eng.Schedule(now+sim.Time(fd), "false-dead", func(fnow sim.Time) {
			if st.net.RackUnreachable(rack) && st.net.Epoch(rack) == epoch {
				st.declareRackDead(fnow, rack)
			}
		})
	}
}

// rackHeal returns a rack to the fabric and resumes every rebuild
// parked against its disks.
func (st *runState) rackHeal(now sim.Time, rack int) {
	st.net.SetRackReachable(rack)
	st.res.PartitionHeals++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindPartitionHeal, Rack: rack})
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
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindFalseDead, Rack: rack})
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
	threshold := int(st.cfg.ReplaceTrigger * float64(st.originalDisks))
	if threshold < 1 {
		threshold = 1
	}
	if st.failedSinceBatch < threshold {
		return
	}
	count := st.failedSinceBatch
	st.failedSinceBatch = 0
	ids := st.cl.AddDisks(count, float64(now))
	st.sched.Grow(st.cl.NumDisks())
	for _, nid := range ids {
		st.scheduleFailure(nid)
		st.armLSE(nid)
		st.armFailSlow(nid)
	}
	st.res.BatchesAdded++
	st.res.DisksAdded += count
	st.res.MigratedBytes += replace.RebalanceOnto(st.cl, ids)
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindBatchAdded,
		Detail: fmt.Sprintf("disks=%d", count)})
}
