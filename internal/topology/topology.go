// Package topology models the cluster network as the recovery paper's
// successors measure it: disks grouped into racks, each rack hanging off
// a top-of-rack (ToR) switch with a finite uplink, all uplinks meeting
// at a spine whose bisection bandwidth may be oversubscribed (Rashmi et
// al.'s warehouse study puts the real repair bottleneck here, not at the
// disk arm). The simulator's flat per-disk recovery rate remains the
// intra-rack model; a transfer that crosses racks is additionally
// throttled by the most-contended link on its path — source uplink,
// destination downlink, or the shared spine — fair-shared among the
// cross-rack flows using it.
//
// The same rack structure doubles as the correlated-fault domain: a ToR
// switch death or rack power event renders every disk in the rack
// unreachable (distinct from dead — the data is intact but temporarily
// behind a dark switch), and the Network tracks reachability with
// epoch-stamped transitions so heal/false-dead timers scheduled against
// one outage cannot fire against a later one.
//
// The zero Config disables everything: with Racks == 0 no Network is
// constructed and every consumer keeps its flat-rate, always-reachable
// behaviour bit-for-bit.
package topology

import (
	"errors"

	"repro/internal/faults"
)

// Config describes the rack/spine fabric. The zero value disables the
// topology model entirely.
type Config struct {
	// Racks is the number of rack fault domains; 0 disables topology.
	// Disks map to racks round-robin (disk id mod Racks), which keeps
	// the mapping stable as replacement batches grow the fleet.
	Racks int

	// RackAware places the blocks of each group in distinct racks (and
	// keeps them rack-disjoint through rebuilds, drains and rebalances),
	// so a single domain fault costs at most one erasure per group. Requires
	// Racks >= the redundancy scheme's group size.
	RackAware bool

	// UplinkMBps is each rack's ToR uplink (and downlink) bandwidth in
	// MB/s. Default 1250 MB/s (a 10 Gb/s ToR uplink).
	UplinkMBps float64

	// OversubscriptionRatio is the ratio of aggregate ToR uplink
	// bandwidth to spine bisection bandwidth; 1 (the default) is a
	// non-blocking fabric, 4 means the spine carries a quarter of the
	// sum of uplinks.
	OversubscriptionRatio float64

	// FalseDeadHours is how long a rack may stay unreachable before its
	// disks are declared dead and rebuilt elsewhere (the partition-
	// tolerance dial: small values convert every transient partition
	// into a rebuild storm; large values stretch the window of
	// vulnerability while data sits behind a dark switch). 0 means
	// never declare — wait for the partition to heal.
	FalseDeadHours float64
}

// Enabled reports whether the topology model is configured.
func (c Config) Enabled() bool { return c.Racks > 0 }

// Validate checks the topology configuration, rejecting NaN/±Inf with
// field-distinct messages before range checks (a NaN uplink bandwidth
// sails through `< 0` and turns every cross-rack duration into NaN).
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"UplinkMBps", c.UplinkMBps},
		{"OversubscriptionRatio", c.OversubscriptionRatio},
		{"FalseDeadHours", c.FalseDeadHours},
	} {
		if err := faults.CheckFinite("topology: "+f.name, f.v); err != nil {
			return err
		}
	}
	switch {
	case c.Racks < 0:
		return errors.New("topology: negative rack count")
	case c.UplinkMBps < 0:
		return errors.New("topology: negative uplink bandwidth")
	case c.OversubscriptionRatio < 0 || (c.OversubscriptionRatio > 0 && c.OversubscriptionRatio < 1):
		return errors.New("topology: oversubscription ratio must be at least 1")
	case c.FalseDeadHours < 0:
		return errors.New("topology: negative false-dead timeout")
	case c.RackAware && c.Racks == 0:
		return errors.New("topology: rack-aware placement needs a rack count")
	}
	return nil
}

// withDefaults fills the zero fabric parameters. Only meaningful when
// Enabled.
func (c Config) withDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.UplinkMBps == 0 {
		c.UplinkMBps = 1250 // 10 Gb/s ToR uplink
	}
	if c.OversubscriptionRatio == 0 {
		c.OversubscriptionRatio = 1 // non-blocking fabric
	}
	return c
}

// Network is the live fabric state for one run: per-rack reachability
// with epoch-stamped transitions, and per-link concurrent-flow counts
// for the fair-share contention model. Not safe for concurrent use —
// like the rest of the kernel it lives on one run's event loop.
type Network struct {
	cfg Config

	// spineMBps is the fabric bisection bandwidth: the sum of uplinks
	// divided by the oversubscription ratio.
	spineMBps float64

	// up/down count the cross-rack flows currently traversing each
	// rack's ToR uplink (as source) and downlink (as destination);
	// cross counts all cross-rack flows (spine load). Intra-rack
	// transfers never touch these.
	up    []int32
	down  []int32
	cross int32

	// unreachable marks racks currently behind a failed switch, power
	// event, or partition. epoch bumps on every reachability
	// transition so timers scheduled against one outage can detect
	// they are stale. since records when the current outage began.
	unreachable []bool
	epoch       []uint32
	since       []float64
}

// NewNetwork validates cfg and builds the run-time fabric state.
// Returns nil when the topology is disabled.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	return &Network{
		cfg:         cfg,
		spineMBps:   cfg.UplinkMBps * float64(cfg.Racks) / cfg.OversubscriptionRatio,
		up:          make([]int32, cfg.Racks),
		down:        make([]int32, cfg.Racks),
		unreachable: make([]bool, cfg.Racks),
		epoch:       make([]uint32, cfg.Racks),
		since:       make([]float64, cfg.Racks),
	}, nil
}

// Racks returns the number of rack fault domains.
func (n *Network) Racks() int { return n.cfg.Racks }

// RackAware reports whether placement must spread groups across racks.
func (n *Network) RackAware() bool { return n.cfg.RackAware }

// FalseDeadHours returns the partition-tolerance timeout (0 = never
// declare a dark rack dead).
func (n *Network) FalseDeadHours() float64 { return n.cfg.FalseDeadHours }

// RackOf maps a disk to its rack. Round-robin by id: replacement
// batches grown mid-run land in existing racks without any bookkeeping.
//
//farm:hotpath called per transfer and per placement candidate
func (n *Network) RackOf(disk int) int { return disk % n.cfg.Racks }

// SameRack reports whether two disks share a rack (no uplink crossing).
//
//farm:hotpath called per transfer completion
func (n *Network) SameRack(a, b int) bool { return a%n.cfg.Racks == b%n.cfg.Racks }

// DiskUnreachable reports whether the disk sits behind a dark switch.
//
//farm:hotpath consulted per source/target eligibility check
func (n *Network) DiskUnreachable(disk int) bool { return n.unreachable[disk%n.cfg.Racks] }

// RackUnreachable reports whether the rack is currently dark.
func (n *Network) RackUnreachable(rack int) bool { return n.unreachable[rack] }

// SetRackUnreachable marks a rack dark at time now (hours), bumping its
// epoch. Returns false when the rack was already dark: an overlapping
// domain event merges into the ongoing outage (no epoch bump, no new
// timers — the first event's heal/false-dead schedule stands).
func (n *Network) SetRackUnreachable(rack int, now float64) bool {
	if n.unreachable[rack] {
		return false
	}
	n.unreachable[rack] = true
	n.epoch[rack]++
	n.since[rack] = now
	return true
}

// SetRackReachable marks a dark rack healed, bumping its epoch so any
// outstanding timers against the outage become stale.
func (n *Network) SetRackReachable(rack int) {
	if !n.unreachable[rack] {
		return
	}
	n.unreachable[rack] = false
	n.epoch[rack]++
}

// Epoch returns the rack's reachability-transition counter. Timers
// capture it at scheduling time and no-op when it has moved on.
func (n *Network) Epoch(rack int) uint32 { return n.epoch[rack] }

// UnreachableSince returns the start time (hours) of the rack's current
// outage; meaningful only while RackUnreachable.
func (n *Network) UnreachableSince(rack int) float64 { return n.since[rack] }

// BeginFlow registers a transfer from disk src to disk dst and returns
// the fair-share bandwidth (MB/s) of the most-contended link on its
// path, or cross=false for an intra-rack transfer (no fabric link
// crossed; the flat per-disk rate stands). The share is computed
// quasi-statically — once, at transfer start, from the concurrent flow
// counts at that instant — and held for the transfer's lifetime
// (DESIGN.md §13 discusses the approximation). Every BeginFlow must be
// paired with exactly one EndFlow.
//
//farm:hotpath per-transfer admission, gated by TestSingleRunAllocCeiling
func (n *Network) BeginFlow(src, dst int) (shareMBps float64, cross bool) {
	sr, dr := src%n.cfg.Racks, dst%n.cfg.Racks
	if sr == dr {
		return 0, false
	}
	n.up[sr]++
	n.down[dr]++
	n.cross++
	share := n.cfg.UplinkMBps / float64(n.up[sr])
	if d := n.cfg.UplinkMBps / float64(n.down[dr]); d < share {
		share = d
	}
	if s := n.spineMBps / float64(n.cross); s < share {
		share = s
	}
	return share, true
}

// EndFlow releases the link capacity claimed by BeginFlow(src, dst).
//
//farm:hotpath per-transfer release
func (n *Network) EndFlow(src, dst int) {
	sr, dr := src%n.cfg.Racks, dst%n.cfg.Racks
	if sr == dr {
		return
	}
	n.up[sr]--
	n.down[dr]--
	n.cross--
	if n.up[sr] < 0 || n.down[dr] < 0 || n.cross < 0 {
		panic("topology: EndFlow without matching BeginFlow")
	}
}

// CrossFlows returns the number of cross-rack flows currently in
// flight (for tests and invariant checks).
func (n *Network) CrossFlows() int { return int(n.cross) }
