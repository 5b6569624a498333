// Package faults is the seeded, deterministic fault-injection layer of
// the simulator. The paper's reliability model assumes whole-disk deaths
// are the only fault mode; real fleets additionally see
//
//   - latent sector errors (LSEs): individual blocks silently become
//     unreadable and are only discovered when something reads them — a
//     rebuild sourcing from the block, or a periodic scrubber;
//   - correlated failure bursts: batch/vintage-correlated death clusters
//     (rack power events, firmware bugs) layered on top of the Table 1
//     hazard, which compress many failures into a short window; and
//   - transient rebuild-I/O faults: a rebuild read fails once and
//     succeeds on retry.
//
// The Injector owns all fault randomness on a stream split from the
// run's seed, so enabling injection never perturbs the failure-time,
// placement, or S.M.A.R.T. draws of the base simulation — with the zero
// Config the simulator's output is byte-identical to a tree without this
// package.
//
// Division of labour: the Injector holds the latent-error bookkeeping
// and every random draw; internal/core schedules the simulation events
// (LSE arrivals, scrub passes, burst deaths) and repairs discovered
// damage through the recovery engines; internal/recovery consults the
// Injector's ProbeRead/RetryBackoff when rebuild transfers complete.
package faults

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Outcome classifies one probed rebuild read.
type Outcome uint8

// Probed read outcomes.
const (
	// ReadOK means the source read succeeded.
	ReadOK Outcome = iota
	// ReadTransient means the read failed but the block is intact; a
	// retry (after backoff) may succeed.
	ReadTransient
	// ReadLatent means the read hit a latent sector error: the source
	// replica itself is damaged and must be repaired from redundancy.
	ReadLatent
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case ReadOK:
		return "ok"
	case ReadTransient:
		return "transient"
	case ReadLatent:
		return "latent"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Config describes the injected fault processes. The zero value disables
// injection entirely; any enabled process leaves the base simulation's
// random streams untouched (the Injector draws from its own split
// stream).
type Config struct {
	// LSERatePerDiskHour is the Poisson arrival rate of latent sector
	// errors per disk-hour (field studies put annualized LSE incidence
	// at a few percent of drives; ~3%/year ≈ 3.4e-6 per disk-hour).
	// Zero disables the LSE process.
	LSERatePerDiskHour float64
	// ScrubIntervalHours is the period of the background scrubber: every
	// interval, all accumulated latent errors are discovered and queued
	// for proactive repair through the recovery engine. Zero disables
	// scrubbing (LSEs are then found only by rebuild reads — or never,
	// until the last redundant copy dies).
	ScrubIntervalHours float64
	// BurstsPerYear is the cluster-level Poisson rate of correlated
	// failure bursts. Zero disables bursts.
	BurstsPerYear float64
	// BurstMeanSize is the mean number of drives killed per burst
	// (at least 1 dies; the excess is Poisson-distributed). Defaults to
	// 3 when bursts are enabled.
	BurstMeanSize float64
	// BurstSpanHours spreads a burst's deaths uniformly over this window
	// (defaults to 1 h when bursts are enabled).
	BurstSpanHours float64
	// TransientReadProb is the probability that a completed rebuild
	// transfer discovers its source read failed transiently and must be
	// retried. Zero disables transient faults.
	TransientReadProb float64
	// MaxRetries caps transient-fault retries per rebuild source before
	// the engine re-sources to another buddy (default 3).
	MaxRetries int
	// BackoffBaseHours is the first retry delay; subsequent retries
	// double it up to BackoffCapHours, with deterministic ±25% jitter
	// drawn from the injector's stream (defaults 0.05 h and 1 h).
	BackoffBaseHours float64
	BackoffCapHours  float64
	// MaxResourcings caps how many times one rebuild may switch source
	// before it is abandoned through the DroppedRebuilds path (default 8).
	MaxResourcings int
	// SparePoolSize, when positive, bounds the traditional engine's
	// dedicated-spare pool: activations beyond the pool queue until a
	// replenishment drive arrives SpareReplenishHours later (default
	// 24 h). Zero keeps the paper's unlimited spares.
	SparePoolSize       int
	SpareReplenishHours float64
	// FailSlow configures gray-failure injection: drives that stay alive
	// but deliver a fraction of their recovery bandwidth. The zero value
	// disables it.
	FailSlow FailSlowConfig
	// Network configures correlated network faults — ToR switch deaths,
	// rack power events, transient partitions — that dark whole rack
	// domains (requires topology). The zero value disables it.
	Network NetworkFaultConfig
}

// FailSlowConfig describes the fail-slow (gray failure) processes:
// per-disk degradation onsets, optional spontaneous recovery, and
// correlated slow-bursts. All randomness is drawn from a dedicated
// stream split off the injector seed, so any combination of the *other*
// fault processes produces byte-identical runs whether or not this
// struct is zero — and vice versa.
type FailSlowConfig struct {
	// OnsetRatePerDiskHour is the hazard of a healthy drive entering a
	// degraded state (exponential). Field studies (Gunawi et al., FAST'18)
	// put fail-slow incidence at roughly 1–2% of drives per year
	// (~1e-6–2e-6 per disk-hour). Zero disables per-disk onsets.
	OnsetRatePerDiskHour float64
	// SlowFactor is k in the healthy → slow ×k → crawling ×k² ladder: a
	// slow drive delivers 1/k of its recovery allotment, a crawling
	// drive 1/k². Defaults to 4 when fail-slow is enabled.
	SlowFactor float64
	// CrawlProb is the probability that an onset lands directly in the
	// crawling state (×k²) rather than merely slow (×k). Default 0.2.
	CrawlProb float64
	// RecoveryMeanHours, when positive, gives degraded drives an
	// exponential dwell time after which they spontaneously return to
	// full speed (transient gray failures: firmware GC storms, thermal
	// throttling). Zero makes degradation permanent until the drive dies
	// or is evicted.
	RecoveryMeanHours float64
	// SlowBurstsPerYear is the cluster-level Poisson rate of correlated
	// slow-bursts — many drives degrading together (shared backplane,
	// switch congestion, bad firmware push). Zero disables bursts.
	SlowBurstsPerYear float64
	// SlowBurstMeanSize is the mean number of drives degraded per burst
	// (at least 1; the excess is Poisson). Default 8.
	SlowBurstMeanSize float64
	// SlowBurstSpanHours spreads a burst's onsets uniformly over this
	// window. Default 1 h.
	SlowBurstSpanHours float64
}

// Enabled reports whether any fail-slow process is configured.
func (c FailSlowConfig) Enabled() bool {
	return c.OnsetRatePerDiskHour > 0 || c.SlowBurstsPerYear > 0
}

// Validate checks the fail-slow configuration, rejecting NaN/±Inf with
// field-distinct messages before sign checks (a NaN bandwidth factor
// sails through `< 0` comparisons and poisons every duration downstream).
func (c FailSlowConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"OnsetRatePerDiskHour", c.OnsetRatePerDiskHour},
		{"SlowFactor", c.SlowFactor},
		{"CrawlProb", c.CrawlProb},
		{"RecoveryMeanHours", c.RecoveryMeanHours},
		{"SlowBurstsPerYear", c.SlowBurstsPerYear},
		{"SlowBurstMeanSize", c.SlowBurstMeanSize},
		{"SlowBurstSpanHours", c.SlowBurstSpanHours},
	} {
		if err := CheckFinite("faults: FailSlow."+f.name, f.v); err != nil {
			return err
		}
	}
	switch {
	case c.OnsetRatePerDiskHour < 0:
		return errors.New("faults: negative fail-slow onset rate")
	case c.SlowFactor < 0 || (c.SlowFactor > 0 && c.SlowFactor <= 1):
		return errors.New("faults: fail-slow factor must exceed 1")
	case c.CrawlProb < 0 || c.CrawlProb > 1:
		return errors.New("faults: crawl probability out of [0,1]")
	case c.RecoveryMeanHours < 0:
		return errors.New("faults: negative fail-slow recovery mean")
	case c.SlowBurstsPerYear < 0:
		return errors.New("faults: negative slow-burst rate")
	case c.SlowBurstMeanSize < 0:
		return errors.New("faults: negative slow-burst size")
	case c.SlowBurstSpanHours < 0:
		return errors.New("faults: negative slow-burst span")
	}
	return nil
}

// withDefaults fills the zero fail-slow policy fields.
func (c FailSlowConfig) withDefaults() FailSlowConfig {
	if !c.Enabled() {
		return c
	}
	if c.SlowFactor == 0 {
		c.SlowFactor = 4
	}
	if c.CrawlProb == 0 {
		c.CrawlProb = 0.2
	}
	if c.SlowBurstsPerYear > 0 {
		if c.SlowBurstMeanSize == 0 {
			c.SlowBurstMeanSize = 8
		}
		if c.SlowBurstSpanHours == 0 {
			c.SlowBurstSpanHours = 1
		}
	}
	return c
}

// CheckFinite rejects NaN and ±Inf float configuration values with a
// message naming the offending field; shared by the fault and core
// config validators.
func CheckFinite(field string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("%s is NaN", field)
	}
	if math.IsInf(v, 0) {
		return fmt.Errorf("%s is infinite (%v)", field, v)
	}
	return nil
}

// Enabled reports whether any fault process is configured.
func (c Config) Enabled() bool {
	return c.LSERatePerDiskHour > 0 || c.BurstsPerYear > 0 ||
		c.TransientReadProb > 0 || c.SparePoolSize > 0 || c.FailSlow.Enabled() ||
		c.Network.Enabled()
}

// Validate checks the configuration. Non-finite floats (NaN, ±Inf) are
// rejected first with field-distinct messages: a NaN rate passes every
// `< 0` guard and then poisons exponential gaps and durations downstream.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LSERatePerDiskHour", c.LSERatePerDiskHour},
		{"ScrubIntervalHours", c.ScrubIntervalHours},
		{"BurstsPerYear", c.BurstsPerYear},
		{"BurstMeanSize", c.BurstMeanSize},
		{"BurstSpanHours", c.BurstSpanHours},
		{"TransientReadProb", c.TransientReadProb},
		{"BackoffBaseHours", c.BackoffBaseHours},
		{"BackoffCapHours", c.BackoffCapHours},
		{"SpareReplenishHours", c.SpareReplenishHours},
	} {
		if err := CheckFinite("faults: "+f.name, f.v); err != nil {
			return err
		}
	}
	if err := c.FailSlow.Validate(); err != nil {
		return err
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	switch {
	case c.LSERatePerDiskHour < 0:
		return errors.New("faults: negative LSE rate")
	case c.ScrubIntervalHours < 0:
		return errors.New("faults: negative scrub interval")
	case c.BurstsPerYear < 0:
		return errors.New("faults: negative burst rate")
	case c.BurstMeanSize < 0:
		return errors.New("faults: negative burst size")
	case c.BurstSpanHours < 0:
		return errors.New("faults: negative burst span")
	case c.TransientReadProb < 0 || c.TransientReadProb >= 1:
		return errors.New("faults: transient read probability out of [0,1)")
	case c.MaxRetries < 0:
		return errors.New("faults: negative retry cap")
	case c.BackoffBaseHours < 0 || c.BackoffCapHours < 0:
		return errors.New("faults: negative backoff")
	case c.MaxResourcings < 0:
		return errors.New("faults: negative re-sourcing cap")
	case c.SparePoolSize < 0:
		return errors.New("faults: negative spare pool")
	case c.SpareReplenishHours < 0:
		return errors.New("faults: negative spare replenish delay")
	}
	return nil
}

// withDefaults fills the zero policy fields.
func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBaseHours == 0 {
		c.BackoffBaseHours = 0.05
	}
	if c.BackoffCapHours == 0 {
		c.BackoffCapHours = 1
	}
	if c.MaxResourcings == 0 {
		c.MaxResourcings = 8
	}
	if c.BurstsPerYear > 0 {
		if c.BurstMeanSize == 0 {
			c.BurstMeanSize = 3
		}
		if c.BurstSpanHours == 0 {
			c.BurstSpanHours = 1
		}
	}
	if c.SparePoolSize > 0 && c.SpareReplenishHours == 0 {
		c.SpareReplenishHours = 24
	}
	c.FailSlow = c.FailSlow.withDefaults()
	c.Network = c.Network.withDefaults()
	return c
}

// lseKey identifies a latent error by the disk and the redundancy group
// of the damaged resident block (a disk holds at most one block per
// group, so the pair is unique).
type lseKey struct {
	disk  int32
	group int32
}

// Entry is one latent sector error: the damaged replica (Group, Rep)
// resident on Disk.
type Entry struct {
	Disk  int
	Group int
	Rep   int
}

// Injector owns the fault state and randomness of one simulation run.
// Not safe for concurrent use — like the rest of a run, it is
// single-threaded.
type Injector struct {
	cfg Config
	rng *rng.Source
	// slow is the dedicated fail-slow stream: every gray-failure draw
	// (onset gaps, severities, recovery dwell times, slow-bursts) comes
	// from here, so enabling/disabling fail-slow never perturbs the LSE,
	// burst, or transient-read draws and vice versa.
	slow *rng.Source
	// netr is the dedicated network-fault stream (switch-fail/power/
	// partition gaps, dwell times, victim racks), isolated for the same
	// reason.
	netr *rng.Source
	// latent maps (disk, group) to the damaged replica index; order
	// preserves deterministic scrub iteration.
	latent map[lseKey]int32
	order  []lseKey
	// onDiscover, when set, fires once per latent error found by a
	// rebuild read (scrub discovery is driven by the caller through
	// TakeLatent). It runs before ProbeRead returns.
	onDiscover func(now sim.Time, diskID, group, rep int)
	// fm mirrors probe outcomes into the flight recorder; never nil (a
	// sink over a private registry until SetMetrics installs a real one),
	// so ProbeRead stays branch-free.
	fm *obs.FaultMetrics
}

// failSlowSeedSalt splits the fail-slow (degraded-performance) stream
// off the injector's seed, so enabling fail-slow events never perturbs
// the fail-stop, latent-error, or network draws. Registered with
// farmlint's cross-package salt registry (rngsalt).
const failSlowSeedSalt = 0x51c0_f1a5_10fd_d15c

// NewInjector validates cfg, applies policy defaults, and seeds the
// injector's private random streams.
func NewInjector(cfg Config, seed uint64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:    cfg.withDefaults(),
		rng:    rng.New(seed),
		slow:   rng.New(seed ^ failSlowSeedSalt),
		netr:   newNetStream(seed),
		latent: make(map[lseKey]int32),
		fm:     obs.NewFaultMetrics(obs.NewRegistry()),
	}, nil
}

// SetMetrics mirrors the injector's read-probe classifications into the
// given flight-recorder bundle. Purely observational.
func (in *Injector) SetMetrics(fm *obs.FaultMetrics) {
	if fm != nil {
		in.fm = fm
	}
}

// Config returns the effective (default-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// SetDiscoveryHandler installs the callback fired when a rebuild read
// discovers a latent error.
func (in *Injector) SetDiscoveryHandler(fn func(now sim.Time, diskID, group, rep int)) {
	in.onDiscover = fn
}

// --- Latent sector errors ---

// NextLSEGap draws the time to a disk's next latent-error arrival
// (exponential with the per-disk rate). Returns +Inf when disabled.
func (in *Injector) NextLSEGap() float64 {
	if in.cfg.LSERatePerDiskHour <= 0 {
		return math.Inf(1)
	}
	return in.rng.Exp(in.cfg.LSERatePerDiskHour)
}

// PickIndex draws a uniform index in [0, n) from the injector's stream
// (used to choose which resident block an LSE lands on).
func (in *Injector) PickIndex(n int) int { return in.rng.Intn(n) }

// MarkLatent records a latent error on the block (group, rep) resident
// on disk. Returns false if that block already carries one.
func (in *Injector) MarkLatent(diskID, group, rep int) bool {
	k := lseKey{int32(diskID), int32(group)}
	if _, dup := in.latent[k]; dup {
		return false
	}
	in.latent[k] = int32(rep)
	in.order = append(in.order, k)
	return true
}

// LatentCount returns the number of undiscovered latent errors.
func (in *Injector) LatentCount() int { return len(in.latent) }

// removeLatent drops one entry, keeping order deterministic
// (swap-remove; the perturbed order is itself a pure function of the
// event history, so runs stay reproducible).
func (in *Injector) removeLatent(k lseKey) {
	delete(in.latent, k)
	for i, o := range in.order {
		if o == k {
			in.order[i] = in.order[len(in.order)-1]
			in.order = in.order[:len(in.order)-1]
			return
		}
	}
}

// DropDisk discards the latent errors on a disk (its death loses the
// blocks anyway) and returns how many were dropped.
func (in *Injector) DropDisk(diskID int) int {
	dropped := 0
	for i := 0; i < len(in.order); {
		k := in.order[i]
		if k.disk == int32(diskID) {
			delete(in.latent, k)
			in.order[i] = in.order[len(in.order)-1]
			in.order = in.order[:len(in.order)-1]
			dropped++
			continue
		}
		i++
	}
	return dropped
}

// TakeLatent drains every accumulated latent error in deterministic
// order — the scrubber's discovery pass. The caller repairs (or
// declares lost) each entry.
func (in *Injector) TakeLatent() []Entry {
	if len(in.order) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(in.order))
	for _, k := range in.order {
		out = append(out, Entry{Disk: int(k.disk), Group: int(k.group), Rep: int(in.latent[k])})
		delete(in.latent, k)
	}
	in.order = in.order[:0]
	return out
}

// --- Rebuild read probing (recovery.FaultModel) ---

// ProbeRead classifies a completed rebuild transfer's source read. A
// transient fault consumes one Bernoulli draw; a latent hit removes the
// error from the undiscovered set and fires the discovery handler
// before returning.
func (in *Injector) ProbeRead(now sim.Time, src, group int) Outcome {
	in.fm.ProbeReads.Inc()
	if p := in.cfg.TransientReadProb; p > 0 && in.rng.Float64() < p {
		in.fm.ProbeTransient.Inc()
		return ReadTransient
	}
	k := lseKey{int32(src), int32(group)}
	if rep, ok := in.latent[k]; ok {
		in.fm.ProbeLatent.Inc()
		in.removeLatent(k)
		if in.onDiscover != nil {
			in.onDiscover(now, src, group, int(rep))
		}
		return ReadLatent
	}
	return ReadOK
}

// RetryBackoff returns the delay before retry attempt n (1-based):
// capped exponential with ±25% jitter from the injector's stream.
func (in *Injector) RetryBackoff(attempt int) sim.Time {
	if attempt < 1 {
		attempt = 1
	}
	d := in.cfg.BackoffBaseHours * math.Pow(2, float64(attempt-1))
	if d > in.cfg.BackoffCapHours {
		d = in.cfg.BackoffCapHours
	}
	return sim.Time(d * (0.75 + 0.5*in.rng.Float64()))
}

// MaxRetries returns the per-source transient retry cap.
func (in *Injector) MaxRetries() int { return in.cfg.MaxRetries }

// MaxResourcings returns the per-rebuild source-switch cap.
func (in *Injector) MaxResourcings() int { return in.cfg.MaxResourcings }

// --- Correlated failure bursts ---

// NextBurstGap draws the time to the next burst (exponential with the
// cluster-level rate). Returns +Inf when disabled.
func (in *Injector) NextBurstGap() float64 {
	if in.cfg.BurstsPerYear <= 0 {
		return math.Inf(1)
	}
	return in.rng.Exp(in.cfg.BurstsPerYear / 8760)
}

// BurstSize draws how many drives one burst kills: 1 + Poisson(mean-1).
func (in *Injector) BurstSize() int {
	mean := in.cfg.BurstMeanSize
	if mean <= 1 {
		return 1
	}
	return 1 + poisson(in.rng, mean-1)
}

// BurstDelay draws a death's offset within the burst window.
func (in *Injector) BurstDelay() float64 {
	return in.rng.Float64() * in.cfg.BurstSpanHours
}

// SampleVictims draws k distinct indices in [0, n).
func (in *Injector) SampleVictims(n, k int) []int {
	return in.rng.SampleK(n, k)
}

// poisson draws Poisson(lambda) from src by Knuth's product method
// (lambda is small here — burst sizes — so the loop is short).
func poisson(src *rng.Source, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// --- Fail-slow (gray failure) injection ---
//
// All draws below come from the injector's dedicated slow stream.

// NextSlowOnsetGap draws the time to a drive's next fail-slow onset
// (exponential with the per-disk hazard). Returns +Inf when disabled.
func (in *Injector) NextSlowOnsetGap() float64 {
	if in.cfg.FailSlow.OnsetRatePerDiskHour <= 0 {
		return math.Inf(1)
	}
	return in.slow.Exp(in.cfg.FailSlow.OnsetRatePerDiskHour)
}

// DrawSlowSeverity draws the degradation factor of one onset: ×k (slow)
// or ×k² (crawling) with the configured crawl probability.
func (in *Injector) DrawSlowSeverity() float64 {
	k := in.cfg.FailSlow.SlowFactor
	if in.cfg.FailSlow.CrawlProb > 0 && in.slow.Float64() < in.cfg.FailSlow.CrawlProb {
		return k * k
	}
	return k
}

// DrawSlowRecovery draws the dwell time until a degraded drive
// spontaneously recovers. ok is false when degradation is permanent.
func (in *Injector) DrawSlowRecovery() (hours float64, ok bool) {
	m := in.cfg.FailSlow.RecoveryMeanHours
	if m <= 0 {
		return 0, false
	}
	return in.slow.Exp(1 / m), true
}

// NextSlowBurstGap draws the time to the next correlated slow-burst.
// Returns +Inf when disabled.
func (in *Injector) NextSlowBurstGap() float64 {
	if in.cfg.FailSlow.SlowBurstsPerYear <= 0 {
		return math.Inf(1)
	}
	return in.slow.Exp(in.cfg.FailSlow.SlowBurstsPerYear / 8760)
}

// SlowBurstSize draws how many drives one slow-burst degrades:
// 1 + Poisson(mean-1).
func (in *Injector) SlowBurstSize() int {
	mean := in.cfg.FailSlow.SlowBurstMeanSize
	if mean <= 1 {
		return 1
	}
	return 1 + poisson(in.slow, mean-1)
}

// SlowBurstDelay draws an onset's offset within the slow-burst window.
func (in *Injector) SlowBurstDelay() float64 {
	return in.slow.Float64() * in.cfg.FailSlow.SlowBurstSpanHours
}

// SampleSlowVictims draws k distinct indices in [0, n) from the
// fail-slow stream.
func (in *Injector) SampleSlowVictims(n, k int) []int {
	return in.slow.SampleK(n, k)
}
