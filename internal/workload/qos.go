package workload

import (
	"errors"
	"math"

	"repro/internal/rng"
)

// Recovery QoS: how much bandwidth may recovery take from the users?
// The paper's base experiments reserve a fixed 16 MB/s (20% of a drive)
// regardless of load; Luby's repair-rate bounds (PAPERS.md) show a fleet
// must also sustain a *minimum* repair rate to clear its rebuild backlog
// before the next expected failure. The policy is the engines' only
// recovery-rate source (core builds fixed at Config.RecoveryMBps when no
// throttle is set). The four policies here span that trade-off:
//
//   - fixed-floor: the paper's reservation — never yields to users,
//     never exploits idle time.
//   - idle: §2.4's idle-time schedule — recovery takes whatever disk
//     bandwidth a diurnal user load (peak share 0.8 at hour 14) leaves,
//     never less than the floor. It follows the clock, not Demand.
//   - aimd: load-adaptive with hysteresis — multiplicative decrease when
//     fleet user share crosses highLoad, additive increase when it drops
//     below lowLoad, hold in the deadband between (oscillation-free).
//   - deadline: aimd, but floored at the Luby-style minimum repair rate
//     needed to rebuild the current backlog within the fleet's expected
//     time-to-next-failure — it refuses to be polite when politeness
//     would convert the backlog into a second-failure loss window.
//
// Policies are consulted at deterministic points (transfer submission)
// with deterministic inputs (sim time, precomputed demand, engine
// backlog), so runs remain byte-identical for a given seed. Only aimd and
// deadline read the fleet load; fixed and idle run without a Demand.

// Throttle policy names accepted by ThrottleConfig.Policy.
const (
	PolicyFixed    = "fixed"
	PolicyAIMD     = "aimd"
	PolicyDeadline = "deadline"
	PolicyIdle     = "idle"
)

// ThrottleConfig selects and parameterizes a recovery throttle policy.
// The zero value (empty Policy) disables throttling entirely.
type ThrottleConfig struct {
	// Policy is one of "", "fixed", "idle", "aimd", "deadline".
	Policy string
	// FloorMBps is the minimum recovery rate (default 16, the paper's
	// guaranteed 20% of an 80 MB/s drive, or the drive's bandwidth if
	// that is lower). The fixed policy always runs at exactly this rate.
	FloorMBps float64
	// MaxMBps is the adaptive ceiling (default 64 — the night-time
	// headroom of the paper's drive — or the drive's bandwidth if that
	// is lower). Ignored by fixed and idle (idle's ceiling is the
	// drive's own bandwidth).
	MaxMBps float64
}

// The aimd band: the rate steps up by increaseMBps per decision while
// the fleet user share is below lowLoad, is multiplied by
// decreaseFactor while it is above highLoad, and holds in the
// hysteresis deadband between.
const (
	increaseMBps   = 4
	decreaseFactor = 0.5
	highLoad       = 0.6
	lowLoad        = 0.3
)

// Enabled reports whether a throttle policy is configured.
func (c ThrottleConfig) Enabled() bool { return c.Policy != "" }

// ReactsToLoad reports whether the policy reads the fleet user share,
// and so needs a demand model: aimd and deadline do, fixed and idle
// follow only the clock.
func (c ThrottleConfig) ReactsToLoad() bool {
	return c.Policy == PolicyAIMD || c.Policy == PolicyDeadline
}

// Validate rejects unknown policies, NaN/Inf, and inverted bounds.
func (c ThrottleConfig) Validate() error {
	switch c.Policy {
	case "", PolicyFixed, PolicyIdle, PolicyAIMD, PolicyDeadline:
	default:
		return errors.New("workload: unknown throttle policy " + c.Policy)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FloorMBps", c.FloorMBps},
		{"MaxMBps", c.MaxMBps},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return errors.New("workload: throttle " + f.name + " is NaN or Inf")
		}
	}
	switch {
	case c.FloorMBps < 0:
		return errors.New("workload: negative throttle floor")
	case c.MaxMBps < 0:
		return errors.New("workload: negative throttle ceiling")
	case c.MaxMBps > 0 && c.FloorMBps > c.MaxMBps:
		return errors.New("workload: throttle floor exceeds ceiling")
	}
	return nil
}

// withDefaults fills the zero knobs of an enabled config for a drive of
// diskMBps: neither the default floor nor the default ceiling exceeds
// the drive.
func (c ThrottleConfig) withDefaults(diskMBps float64) ThrottleConfig {
	if c.FloorMBps == 0 {
		c.FloorMBps = min(16, diskMBps)
	}
	if c.MaxMBps == 0 {
		c.MaxMBps = min(64, diskMBps)
	}
	return c
}

// Backlog is the recovery engine's view of its outstanding work, fed to
// deadline-aware policies.
type Backlog struct {
	// PendingBytes is the total data still awaiting rebuild.
	PendingBytes int64
	// Streams is the number of rebuild streams that can make progress in
	// parallel (at least 1 when there is any backlog).
	Streams int
	// MTTFHours is the fleet's expected time to the next disk failure.
	MTTFHours float64
}

// ThrottlePolicy decides the per-stream recovery rate at a decision
// point. Implementations are deterministic state machines.
type ThrottlePolicy interface {
	// RecoveryMBps returns the rate a rebuild stream may use given the
	// current fleet user share and recovery backlog.
	RecoveryMBps(nowHours, fleetShare float64, backlog Backlog) float64
	// Name identifies the policy in reports.
	Name() string
}

// NewThrottle builds the configured policy, or nil when disabled.
// diskMBps is the drive's sustainable bandwidth: the idle policy's
// ceiling, and the cap on the adaptive policies' default ceiling.
func NewThrottle(cfg ThrottleConfig, diskMBps float64) (ThrottlePolicy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if diskMBps <= 0 {
		return nil, errors.New("workload: throttle policy needs a positive disk bandwidth")
	}
	cfg = cfg.withDefaults(diskMBps)
	switch cfg.Policy {
	case PolicyFixed:
		return &fixedFloor{cfg: cfg}, nil
	case PolicyIdle:
		return &idle{floor: cfg.FloorMBps, diskMBps: diskMBps}, nil
	case PolicyAIMD:
		return &aimd{cfg: cfg, cur: cfg.FloorMBps}, nil
	default:
		return &deadline{aimd: aimd{cfg: cfg, cur: cfg.FloorMBps}}, nil
	}
}

// fixedFloor is the paper's reservation: FloorMBps, always.
type fixedFloor struct{ cfg ThrottleConfig }

//farm:hotpath runs per transfer submission
func (p *fixedFloor) RecoveryMBps(float64, float64, Backlog) float64 { return p.cfg.FloorMBps }

func (p *fixedFloor) Name() string { return PolicyFixed }

// idleLoad is the user load the idle policy yields to: the seed's
// diurnal curve, a share of 0.8 at the busiest hour (14:00) falling to
// zero twelve hours away, evaluated by the same function as Demand's
// base load.
var idleLoad = DemandConfig{BaseShare: 0.4, DiurnalAmplitude: 1}

// idle exploits system idle time (§2.4): recovery receives whatever the
// users leave of the drive, max(floor, diskMBps·(1 − share)). With the
// paper's drive and floor that is 16 MB/s at the peak, the whole
// 80 MB/s at the trough, and 48 MB/s on the day's mean.
type idle struct{ floor, diskMBps float64 }

//farm:hotpath runs per transfer submission
func (p *idle) RecoveryMBps(nowHours float64, _ float64, _ Backlog) float64 {
	free := p.diskMBps * (1 - idleLoad.diurnal(nowHours))
	if free < p.floor {
		return p.floor
	}
	return free
}

func (p *idle) Name() string { return PolicyIdle }

// aimd adapts the rate to the fleet user share with hysteresis: decrease
// multiplicatively above highLoad, increase additively below lowLoad,
// hold in between. The deadband plus the bounded step sizes make the
// trajectory oscillation-free: the rate only moves when the load signal
// has crossed out of the band, never chatters inside it.
type aimd struct {
	cfg ThrottleConfig
	cur float64
}

//farm:hotpath runs per transfer submission
func (p *aimd) RecoveryMBps(_ float64, fleetShare float64, _ Backlog) float64 {
	switch {
	case fleetShare > highLoad:
		p.cur *= decreaseFactor
		if p.cur < p.cfg.FloorMBps {
			p.cur = p.cfg.FloorMBps
		}
	case fleetShare < lowLoad:
		p.cur += increaseMBps
		if p.cur > p.cfg.MaxMBps {
			p.cur = p.cfg.MaxMBps
		}
	}
	return p.cur
}

func (p *aimd) Name() string { return PolicyAIMD }

// deadline is aimd floored at the Luby-style minimum repair rate: the
// per-stream rate that clears the current backlog within the fleet's
// expected time to the next failure. Below that rate the backlog outruns
// the failure process and every yield to users buys latency with loss
// probability.
type deadline struct {
	aimd
}

//farm:hotpath runs per transfer submission
func (p *deadline) RecoveryMBps(nowHours, fleetShare float64, backlog Backlog) float64 {
	rate := p.aimd.RecoveryMBps(nowHours, fleetShare, backlog)
	if min := MinRepairMBps(backlog); min > rate {
		if min > p.cfg.MaxMBps {
			min = p.cfg.MaxMBps
		}
		if min > rate {
			rate = min
		}
	}
	return rate
}

func (p *deadline) Name() string { return PolicyDeadline }

// MinRepairMBps is the Luby-style repair-rate lower bound: the
// per-stream rate at which the pending backlog, spread across the
// available parallel streams, completes within the fleet's expected
// time to the next failure. Zero when there is no backlog or no
// deadline pressure.
//
//farm:hotpath runs per deadline-policy decision
func MinRepairMBps(b Backlog) float64 {
	if b.PendingBytes <= 0 || b.MTTFHours <= 0 {
		return 0
	}
	streams := b.Streams
	if streams < 1 {
		streams = 1
	}
	perStreamBytes := float64(b.PendingBytes) / float64(streams)
	//farm:unitless Luby bound: bytes ÷ (hours·3600·1e6) = MB/s; kept inline because routing through disk.RebuildHours would reorder the float ops the golden transcripts pin
	return perStreamBytes / (b.MTTFHours * 3600 * 1e6)
}

// Foreground bundles everything the recovery engines need to coexist
// with users: the demand model, a private RNG stream for degraded-read
// sampling, and the latency-model constants. A nil *Foreground (the
// zero config) leaves every engine fast path untouched.
type Foreground struct {
	// Demand is the user-load model (never nil in an enabled bundle).
	Demand *Demand
	// Reads is the private stream degraded-read arrivals are drawn from.
	Reads *rng.Source
	// DiskMBps is the drive's sustainable bandwidth, for converting
	// recovery rates into shares.
	DiskMBps float64
	// KFactor is the reconstruction fan-in: a degraded read touches this
	// many surviving blocks instead of one (the scheme's m).
	KFactor float64
	// CrossRackFactor stretches degraded reads whose reconstruction
	// crosses the oversubscribed fabric (1 = flat network).
	CrossRackFactor float64
	// MTTFHours is the fleet's expected time to next failure, feeding
	// deadline-aware policies.
	MTTFHours float64
}
