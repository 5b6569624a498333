package workload

import (
	"errors"
	"math"

	"repro/internal/rng"
)

// This file is the foreground-traffic demand model: a seeded stochastic
// per-disk user I/O load the recovery layer must share the spindles
// with. The paper observes (§2.4) that recovery bandwidth "fluctuates
// with the intensity of user requests"; this model supplies the
// intensity — a diurnal base load, Poisson burst episodes on top of it,
// and a static per-rack skew — as an instantaneous user share of each
// disk's bandwidth.
//
// Determinism contract: the model draws every random quantity (burst
// episode arrivals, durations, amplitudes, rack skew) from its own RNG
// stream split off the run seed with a dedicated salt at construction
// time, before the first simulation event fires. Queries are pure reads
// of the precomputed schedule, so enabling the demand model never
// perturbs the failure, placement, or fault-injection streams, and the
// zero config constructs no model at all (core keeps a nil pointer and
// every consumer's fast path returns its input bit-for-bit unchanged).

// demandSeedSalt isolates the demand stream from every other consumer of
// the run seed (placement, injector, fail-slow, network faults).
const demandSeedSalt = 0x10ad_caf3_0f0e_610d

// DemandConfig configures the foreground demand model. The zero value
// disables it entirely.
type DemandConfig struct {
	// BaseShare is the diurnal-mean user share of each disk's bandwidth
	// (0..1). Zero with zero BurstsPerDay disables the model.
	BaseShare float64
	// DiurnalAmplitude is the fraction of BaseShare swung by the day
	// cycle: the share follows BaseShare·(1 + A·cos) peaking at
	// peakHour. Default 0.6.
	DiurnalAmplitude float64
	// BurstsPerDay is the Poisson rate of burst episodes (flash crowds,
	// batch jobs), each lasting an exponential time of mean
	// burstMeanHours. Zero disables bursts.
	BurstsPerDay float64
	// BurstShare is the mean additional user share during an episode;
	// each episode draws its amplitude uniformly in [0.5, 1.5]× this.
	// Default 0.25.
	BurstShare float64
	// RackSkew spreads the load across racks: rack multipliers are drawn
	// uniformly in [1-RackSkew, 1+RackSkew] (0..1; zero means uniform).
	RackSkew float64
	// MaxShare caps the total user share so recovery always retains some
	// headroom (0..1). Default 0.9.
	MaxShare float64
}

// The demand shape's fixed parameters: the busiest hour of the day
// cycle, and the mean duration of a burst episode (exponential).
const (
	peakHour       = 14.0
	burstMeanHours = 2.0
)

// Enabled reports whether the config describes any foreground load.
func (c DemandConfig) Enabled() bool { return c.BaseShare > 0 || c.BurstsPerDay > 0 }

// Validate rejects NaN/Inf and out-of-range fields.
func (c DemandConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"BaseShare", c.BaseShare},
		{"DiurnalAmplitude", c.DiurnalAmplitude},
		{"BurstsPerDay", c.BurstsPerDay},
		{"BurstShare", c.BurstShare},
		{"RackSkew", c.RackSkew},
		{"MaxShare", c.MaxShare},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return errors.New("workload: demand " + f.name + " is NaN or Inf")
		}
	}
	switch {
	case c.BaseShare < 0 || c.BaseShare > 1:
		return errors.New("workload: demand base share out of [0,1]")
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude > 1:
		return errors.New("workload: demand diurnal amplitude out of [0,1]")
	case c.BurstsPerDay < 0:
		return errors.New("workload: negative burst rate")
	case c.BurstShare < 0 || c.BurstShare > 1:
		return errors.New("workload: burst share out of [0,1]")
	case c.RackSkew < 0 || c.RackSkew > 1:
		return errors.New("workload: rack skew out of [0,1]")
	case c.MaxShare < 0 || c.MaxShare > 1:
		return errors.New("workload: max share out of [0,1]")
	}
	return nil
}

// withDefaults fills the zero knobs of an enabled config.
func (c DemandConfig) withDefaults() DemandConfig {
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.6
	}
	if c.BurstShare == 0 {
		c.BurstShare = 0.25
	}
	if c.MaxShare == 0 {
		c.MaxShare = 0.9
	}
	return c
}

// burst is one precomputed demand episode.
type burst struct {
	start, end float64
	amp        float64
}

// Demand is the materialized demand model: the full burst schedule and
// rack skew are drawn at construction, so queries are pure.
type Demand struct {
	cfg   DemandConfig
	racks int
	skew  []float64
	// bursts are episode records sorted by start time; starts is the
	// parallel start-time array the share query binary-searches.
	bursts []burst
	starts []float64
	// maxOverlap bounds how many episodes can cover one instant, so the
	// share query scans a bounded prefix behind the binary search.
	maxOverlap int
}

// NewDemand draws the run's demand schedule: burst episodes over the
// horizon and one skew multiplier per rack, all from a dedicated stream
// salted off the seed. racks <= 1 means a flat (unskewed) fleet.
func NewDemand(cfg DemandConfig, horizonHours float64, racks int, seed uint64) (*Demand, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	r := rng.New(seed ^ demandSeedSalt)
	d := &Demand{cfg: cfg, racks: racks}
	if racks > 1 && cfg.RackSkew > 0 {
		d.skew = make([]float64, racks)
		for i := range d.skew {
			d.skew[i] = 1 + cfg.RackSkew*(2*r.Float64()-1)
		}
	}
	if cfg.BurstsPerDay > 0 {
		rate := cfg.BurstsPerDay / 24
		for t := r.Exp(rate); t < horizonHours; t += r.Exp(rate) {
			dur := r.Exp(1 / burstMeanHours)
			amp := cfg.BurstShare * (0.5 + r.Float64())
			d.bursts = append(d.bursts, burst{start: t, end: t + dur, amp: amp})
			d.starts = append(d.starts, t)
		}
	}
	// Overlap bound: an episode alive at t must start after t minus the
	// longest episode; precompute the worst backward scan length.
	longest := 0.0
	for _, b := range d.bursts {
		if dur := b.end - b.start; dur > longest {
			longest = dur
		}
	}
	for i := range d.bursts {
		n := 1
		for j := i - 1; j >= 0 && d.bursts[i].start-d.bursts[j].start <= longest; j-- {
			n++
		}
		if n > d.maxOverlap {
			d.maxOverlap = n
		}
	}
	return d, nil
}

// Bursts returns the precomputed episode count.
func (d *Demand) Bursts() int { return len(d.bursts) }

// BurstAt returns episode i's start hour, duration, and amplitude.
func (d *Demand) BurstAt(i int) (start, hours, amp float64) {
	b := d.bursts[i]
	return b.start, b.end - b.start, b.amp
}

// diurnal is the base user share at nowHours: a raised cosine around
// BaseShare swinging ±DiurnalAmplitude·BaseShare, peaking at peakHour.
// It is the package's one day-cycle curve: Demand's base load and the
// idle throttle policy's schedule both evaluate it.
//
//farm:hotpath runs per demand query on the transfer-submission path
func (c DemandConfig) diurnal(nowHours float64) float64 {
	hourOfDay := math.Mod(nowHours, 24)
	if hourOfDay < 0 {
		hourOfDay += 24
	}
	phase := (hourOfDay - peakHour) * (2 * math.Pi / 24)
	return c.BaseShare * (1 + c.DiurnalAmplitude*math.Cos(phase))
}

// burstBoost sums the amplitudes of episodes covering nowHours: a
// manual binary search over the start array plus a bounded backward
// scan (episodes are sorted by start, not end, so an earlier long
// episode can still cover now).
//
//farm:hotpath runs per demand query on the transfer-submission path
func (d *Demand) burstBoost(nowHours float64) float64 {
	lo, hi := 0, len(d.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.starts[mid] <= nowHours {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first episode starting after now; scan backward over the
	// bounded overlap window.
	boost := 0.0
	for i, n := lo-1, 0; i >= 0 && n < d.maxOverlap; i, n = i-1, n+1 {
		if d.bursts[i].end > nowHours {
			boost += d.bursts[i].amp
		}
	}
	return boost
}

// FleetShare returns the rack-agnostic user share at nowHours — the
// load signal throttle policies react to.
//
//farm:hotpath runs per throttle decision
func (d *Demand) FleetShare(nowHours float64) float64 {
	s := d.cfg.diurnal(nowHours) + d.burstBoost(nowHours)
	if s > d.cfg.MaxShare {
		return d.cfg.MaxShare
	}
	return s
}

// Share returns disk's instantaneous user share at nowHours, including
// its rack's skew multiplier. racks is fixed at construction; disks map
// to racks round-robin exactly as the topology layer does.
//
//farm:hotpath runs per transfer submission and degraded-read sample
func (d *Demand) Share(nowHours float64, diskID int) float64 {
	s := d.cfg.diurnal(nowHours) + d.burstBoost(nowHours)
	if d.skew != nil {
		s *= d.skew[diskID%d.racks]
	}
	if s > d.cfg.MaxShare {
		return d.cfg.MaxShare
	}
	return s
}

// ContentionFactor converts a user share into the transfer-duration
// stretch it inflicts on a recovery flow sharing the spindle: the flow
// gets the residual bandwidth, so the duration divides by (1 - share).
//
//farm:hotpath runs per transfer submission
func ContentionFactor(share float64) float64 {
	if share <= 0 {
		return 1
	}
	if share > 0.95 {
		share = 0.95
	}
	return 1 / (1 - share)
}

// Poisson draws a Poisson variate with the given mean from src (Knuth's
// product method; means here are small — degraded-read counts per
// window — so the loop is short). Deterministic given the stream.
func Poisson(src *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation keeps the draw O(1) for storm windows.
		n := int(src.Norm(mean, math.Sqrt(mean)) + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
