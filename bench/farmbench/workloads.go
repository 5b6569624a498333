package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/workload"
)

// workloadDef is one workload: a simulator config and the batch of
// trajectories a measuring child times at a time. A child's batch j runs
// trajectories seed+j*batch onwards, so a run walks through distinct
// trajectories like a Monte Carlo campaign, one fixed-size batch at a
// time.
type workloadDef struct {
	name string
	why  string
	// config builds the simulated system from public fields only.
	config func() core.Config
	// monteCarlo runs the batch through core.MonteCarlo with one worker
	// per CPU (a closed loop over its claim index); otherwise the
	// trajectories run one after another through core.Simulator.Run.
	monteCarlo bool
	// forensics attaches a forensics.Aggregate to the campaign.
	forensics bool
	// batch is the trajectories per timed batch; traceK the trajectories
	// the -trace pass runs one at a time.
	batch, traceK int
	// warmup is the untimed batches a child runs before timing, so the
	// heap has grown to its working size.
	warmup int
	// children is how many fresh campaign children a time-filled run
	// splits its time between; peak RSS is their median. A small heap
	// needs many: its peak moves with the heap-growth steps that late GC
	// cycles leave, and the longer a child runs the more of them it
	// collects.
	children int
}

// workers is the Monte Carlo worker count: one per CPU, at most one per
// trajectory; 1 for sequential workloads.
func (w workloadDef) workers() int {
	if !w.monteCarlo {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), w.batch)
}

// The four workloads cover the two recovery engines (FARM's parallel
// rebuild against the spare disk's serial one) and three cost regimes:
// the paper's own system, where cluster build and the mirrored-rebuild
// loop split the time; a 100k-disk fleet whose drive table dwarfs the
// last-level cache; an everything-on storm bound by the event loop; and a
// small fleet where per-trajectory fixed cost dominates.
var workloads = []workloadDef{
	{
		name:       "paper-2pb",
		why:        "the paper's Table 2 system (2 PB, 10240 disks, FARM); cluster build plus mirrored rebuilds, no fault or demand hooks",
		config:     core.DefaultConfig,
		monteCarlo: true,
		batch:      4,
		traceK:     12,
		warmup:     1,
		children:   1,
	},
	{
		name:     "fleet-100k",
		why:      "100000 disks, FARM, one trajectory at a time; build-dominated with a drive table far larger than the cache",
		config:   fleet100k,
		batch:    1,
		traceK:   1,
		children: 1,
	},
	{
		name:       "storm-all",
		why:        "everything on at 500 disks: faults, racks, demand, throttle, maintenance, replacement, forensics; event-loop bound",
		config:     stormAll,
		monteCarlo: true,
		forensics:  true,
		batch:      2,
		traceK:     4,
		warmup:     1,
		children:   1,
	},
	{
		name:       "spare-small-mc",
		why:        "250 disks with the spare-disk engine; per-trajectory fixed cost and the serial rebuild path dominate",
		config:     spareSmall,
		monteCarlo: true,
		batch:      200,
		traceK:     200,
		warmup:     1,
		children:   12,
	},
}

func fleet100k() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 20000 * disk.TB
	return cfg
}

func spareSmall() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 50 * disk.TB
	cfg.UseFARM = false
	return cfg
}

// stormAll is ext-forensics' FARM storm at 100 TB under ext-elastic's
// "all" maintenance plan: a hot vintage on an oversubscribed 10-rack
// fabric with network faults, latent errors and scrubbing, correlated
// bursts, fail-slow drives with straggler mitigation, foreground demand
// with an AIMD throttle, batch replacement, drains, rolling upgrades and
// capacity growth.
func stormAll() core.Config {
	cfg := core.DefaultConfig()
	cfg.TotalDataBytes = 100 * disk.TB
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
	cfg.Demand = workload.DemandConfig{
		BaseShare:        0.3,
		DiurnalAmplitude: 0.5,
		BurstsPerDay:     1,
		BurstShare:       0.25,
		RackSkew:         0.3,
		MaxShare:         0.7,
	}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 32}
	cfg.Maintenance = core.MaintenanceConfig{
		DrainEveryHours: 720, DrainDisks: 2,
		UpgradeEveryHours: 168, UpgradeDurationHours: 12,
		GrowEveryHours: 4380, GrowDisks: 8,
		GrowCapacityFactor: 1.25, GrowBandwidthFactor: 1.1, GrowAFRFactor: 1.2,
	}
	return cfg
}

// miniature shrinks a workload to a smoke-test size: a 20 TB fleet, at
// most two trajectories per batch and one traced trajectory.
func miniature(w workloadDef) workloadDef {
	full := w.config
	w.config = func() core.Config {
		cfg := full()
		cfg.TotalDataBytes = 20 * disk.TB
		return cfg
	}
	w.batch = min(w.batch, 2)
	w.traceK = 1
	return w
}

// lookupWorkload returns the named workload, shrunk when mini is set.
func lookupWorkload(name string, mini bool) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			if mini {
				w = miniature(w)
			}
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
