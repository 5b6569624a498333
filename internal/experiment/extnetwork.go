package experiment

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/topology"
)

// netTopo is the fabric every ext-network data point runs on: 20 racks
// behind ToR uplinks feeding a spine whose bisection bandwidth is the
// racks' aggregate uplink divided by the oversubscription ratio.
func netTopo(aware bool, uplinkMBps, ratio, falseDeadHours float64) topology.Config {
	return topology.Config{
		Racks:                 20,
		RackAware:             aware,
		UplinkMBps:            uplinkMBps,
		OversubscriptionRatio: ratio,
		FalseDeadHours:        falseDeadHours,
	}
}

// netBase is the common system under the fabric: a hotter vintage and
// batch replacement, so racks keep failing and rebuilding across the
// horizon.
func netBase(opts Options) core.Config {
	cfg := opts.baseConfig()
	cfg.VintageScale = 2
	cfg.ReplaceTrigger = 0.04
	return cfg
}

// runExtNetwork quantifies what the paper's flat-network model hides.
// Three tables:
//
//  1. Flat vs rack-aware placement under ToR-switch write-offs: a dead
//     switch darkens a whole rack, and after the false-dead patience
//     the control plane writes its drives off. Flat placement lets
//     both mirrors of a group share a rack, so one write-off destroys
//     data; rack-aware spread caps the blast radius at one replica per
//     group.
//  2. Spine oversubscription: under correlated failure bursts the
//     cross-rack repair flows contend for the bisection; rebuild
//     windows stretch as the ratio grows.
//  3. The false-dead timeout: written-off transient outages cost
//     rebuild-storm traffic (drives that were fine re-replicated
//     anyway); long patience keeps dark-but-intact data vulnerable.
func runExtNetwork(opts Options) ([]*report.Table, error) {
	opts = opts.withDefaults()
	crossRackGB := mean("cross-rack GB/run", func(r core.Result) metrics.Welford { return r.CrossRackGB })
	falseDead := mean("false-dead disks/run", func(r core.Result) metrics.Welford { return r.FalseDeadDisks })

	// Table 1 runs on the paper's default vintage: the only loss channel
	// that differs between the rows is the rack write-off itself, so the
	// placement signal is not drowned by background double failures.
	placement := axis{"placement", []point{
		{"flat", func(c *core.Config) { c.Topology = netTopo(false, 1250, 4, 24) }},
		{"rack-aware", func(c *core.Config) { c.Topology = netTopo(true, 1250, 4, 24) }},
	}}
	switches := opts.baseConfig()
	switches.Faults.Network = faults.NetworkFaultConfig{SwitchFailsPerYear: 4}
	t1, err := opts.sweep("ext-network", "Extension: flat vs rack-aware placement under ToR-switch write-offs",
		switches, []axis{placement}, pLoss,
		mean("lost groups/run", func(r core.Result) metrics.Welford { return r.LostGroups }),
		falseDead, crossRackGB)
	if err != nil {
		return nil, err
	}
	t1.AddNote("runs=%d, scale=%.3g; 20 racks, 4 switch fails/year, 24 h false-dead patience", opts.Runs, opts.Scale)
	t1.AddNote("expected shape: flat placement loses data whenever a written-off rack")
	t1.AddNote("held both mirrors of a group; rack-aware spread caps the loss at one")
	t1.AddNote("replica per group, so P(loss) falls to the double-failure baseline")

	oversub := values("oversubscription", "%g:1", []float64{1, 4, 16},
		func(c *core.Config, ratio float64) { c.Topology = netTopo(true, 100, ratio, 0) })
	bursts := netBase(opts)
	bursts.Faults.BurstsPerYear = 4
	bursts.Faults.BurstMeanSize = 8
	t2, err := opts.sweep("ext-network", "Extension: rebuild windows under spine oversubscription",
		bursts, []axis{oversub}, meanWindow,
		mean("p99 window (h)", func(r core.Result) metrics.Welford { return r.WindowP99Hours }),
		crossRackGB, pLoss)
	if err != nil {
		return nil, err
	}
	t2.AddNote("100 MB/s uplinks, correlated bursts (4/year, mean 8 kills), rack-aware")
	t2.AddNote("placement so every repair crosses the spine; expected shape: windows")
	t2.AddNote("stretch as the bisection thins")

	patience := values("patience (h)", "%g", []float64{6, 24, 96},
		func(c *core.Config, fd float64) { c.Topology = netTopo(true, 1250, 4, fd) })
	outages := netBase(opts)
	outages.Faults.Network = faults.NetworkFaultConfig{
		SwitchFailsPerYear: 2,
		PartitionsPerYear:  12,
		PartitionMeanHours: 12,
	}
	t3, err := opts.sweep("ext-network", "Extension: the false-dead timeout trade-off",
		outages, []axis{patience}, falseDead,
		mean("parked/run", func(r core.Result) metrics.Welford { return r.ParkedTransfers }),
		mean("max window (h)", func(r core.Result) metrics.Welford { return r.MaxWindowHours }),
		pLoss, crossRackGB)
	if err != nil {
		return nil, err
	}
	t3.AddNote("2 switch fails/year (permanent until written off) + 12 partitions/year")
	t3.AddNote("(mean 12 h, self-healing); short patience re-replicates transient")
	t3.AddNote("outages — wasted cross-rack traffic — while long patience leaves")
	t3.AddNote("dark-but-intact data exposed, stretching the worst window")

	return []*report.Table{t1, t2, t3}, nil
}
