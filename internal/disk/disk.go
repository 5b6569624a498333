// Package disk models the storage devices of the simulated cluster: their
// capacity, bandwidth, age-dependent failure behaviour (Table 1 of the
// paper), and end-of-design-life.
//
// The paper's drives are extrapolated 1 TB devices with roughly 80 MB/s of
// sustainable bandwidth (based on the IBM Deskstar of the day), of which at
// most 20% — 16 MB/s — is allotted to recovery. Failure rates follow the
// industry's age-banded table (Elerath 2000 / IDEMA R2-98) rather than a
// constant MTBF.
package disk

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// Unit constants. Simulation time is in hours; sizes are in bytes.
const (
	GB = int64(1) << 30
	TB = int64(1) << 40
	PB = int64(1) << 50

	// HoursPerMonth follows the 730 h convention (8760 h / 12).
	HoursPerMonth = 730.0
	// HoursPerYear is 8760.
	HoursPerYear = 8760.0
	// EODLYears is the end of design life the paper assumes.
	EODLYears = 6
	// EODLHours is the design life in simulation time.
	EODLHours = EODLYears * HoursPerYear
)

// Table1 returns the paper's disk failure-rate table as a piecewise
// hazard: percent failing per 1000 hours by age band.
//
//	months 0–3:  0.50 %/kh
//	months 3–6:  0.35 %/kh
//	months 6–12: 0.25 %/kh
//	months 12+:  0.20 %/kh
//
// The early bands are the infant-mortality edge of the bathtub curve; the
// final band extends to (and past) the 6-year EODL.
func Table1() *rng.PiecewiseHazard {
	h, err := rng.NewPiecewiseHazard(
		[]float64{0, 3 * HoursPerMonth, 6 * HoursPerMonth, 12 * HoursPerMonth},
		[]float64{0.005 / 1000, 0.0035 / 1000, 0.0025 / 1000, 0.002 / 1000},
	)
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return h
}

// Vintage describes a drive generation: its hazard curve and a scale
// factor. Figure 8(b) doubles the Table 1 rates via Scale = 2.
type Vintage struct {
	Name   string
	Hazard *rng.PiecewiseHazard
}

// NewVintage builds a vintage from Table 1 scaled by factor.
func NewVintage(name string, factor float64) (Vintage, error) {
	h, err := Table1().Scale(factor)
	if err != nil {
		return Vintage{}, err
	}
	return Vintage{Name: name, Hazard: h}, nil
}

// Model holds the physical parameters shared by a batch of drives.
type Model struct {
	CapacityBytes int64   // e.g. 1 TB
	BandwidthMBps float64 // sustainable transfer rate
	Vintage       Vintage
}

// ErrModel reports an invalid drive model.
var ErrModel = errors.New("disk: invalid model")

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.CapacityBytes <= 0 {
		return fmt.Errorf("%w: capacity %d", ErrModel, m.CapacityBytes)
	}
	if m.BandwidthMBps <= 0 {
		return fmt.Errorf("%w: bandwidth %v", ErrModel, m.BandwidthMBps)
	}
	if m.Vintage.Hazard == nil {
		return fmt.Errorf("%w: nil vintage hazard", ErrModel)
	}
	return nil
}

// DefaultModel returns the paper's extrapolated drive: 1 TB capacity,
// 80 MB/s sustainable bandwidth, Table 1 vintage.
func DefaultModel() Model {
	return Model{
		CapacityBytes: TB,
		BandwidthMBps: 80,
		Vintage:       Vintage{Name: "table1", Hazard: Table1()},
	}
}

// State is a drive's lifecycle state in the simulator.
type State uint8

// Drive lifecycle states.
const (
	// Alive means the drive is in service.
	Alive State = iota
	// Failed means the drive has failed but the failure may not yet be
	// detected.
	Failed
	// Retired means the drive was removed by a replacement batch.
	Retired
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Failed:
		return "failed"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Drive is one simulated disk.
type Drive struct {
	ID        int
	Model     Model
	State     State
	BornAt    float64 // simulation hour the drive entered service
	FailedAt  float64 // simulation hour of failure (valid when State != Alive)
	UsedBytes int64   // bytes currently stored (data + redundancy)
	// Slowdown is the fail-slow degradation multiplier: a gray-failed
	// drive delivers its recovery allotment divided by this factor.
	// Values <= 1 (including the zero value) mean healthy; the fail-slow
	// injector sets ×k (slow) or ×k² (crawling) and may clear it back on
	// spontaneous recovery.
	Slowdown float64
}

// NewDrive returns an alive drive entering service at bornAt.
func NewDrive(id int, m Model, bornAt float64) *Drive {
	return &Drive{ID: id, Model: m, State: Alive, BornAt: bornAt}
}

// AppendFleet appends count alive drives entering service at bornAt to
// fleet, numbered on from len(fleet), all sharing one backing array:
// the initial fleet and every later batch cost one allocation (plus
// amortized growth of fleet), not one per drive.
func AppendFleet(fleet []*Drive, count int, m Model, bornAt float64) []*Drive {
	backing := make([]Drive, count)
	for i := range backing {
		backing[i] = Drive{ID: len(fleet), Model: m, State: Alive, BornAt: bornAt}
		fleet = append(fleet, &backing[i])
	}
	return fleet
}

// Age returns the drive's age at simulation time now.
func (d *Drive) Age(now float64) float64 { return now - d.BornAt }

// SampleFailureTime draws the absolute simulation time at which the drive
// will fail, given it is alive at time now, using the vintage hazard
// conditioned on the drive's current age.
func (d *Drive) SampleFailureTime(r *rng.Source, now float64) float64 {
	age := d.Age(now)
	if age < 0 {
		age = 0
	}
	failAge := d.Model.Vintage.Hazard.SampleAgeAfter(r, age)
	return d.BornAt + failAge
}

// SlowFactor returns the drive's effective degradation multiplier,
// normalised to at least 1 (the zero value and any sub-unity setting
// read as healthy).
func (d *Drive) SlowFactor() float64 {
	if d.Slowdown > 1 {
		return d.Slowdown
	}
	return 1
}

// FreeBytes returns remaining capacity.
func (d *Drive) FreeBytes() int64 { return d.Model.CapacityBytes - d.UsedBytes }

// Utilization returns the used fraction of capacity in [0, 1+].
func (d *Drive) Utilization() float64 {
	return float64(d.UsedBytes) / float64(d.Model.CapacityBytes)
}

// Store reserves bytes on the drive. It returns false (and stores nothing)
// if the drive lacks space or is not alive.
func (d *Drive) Store(bytes int64) bool {
	if d.State != Alive || bytes < 0 || d.UsedBytes+bytes > d.Model.CapacityBytes {
		return false
	}
	d.UsedBytes += bytes
	return true
}

// Release frees bytes previously stored. Releasing more than stored is a
// simulator bug and panics.
func (d *Drive) Release(bytes int64) {
	if bytes < 0 || bytes > d.UsedBytes {
		panic(fmt.Sprintf("disk: release %d of %d used", bytes, d.UsedBytes))
	}
	d.UsedBytes -= bytes
}

// RecoveryBandwidthBps converts a recovery allotment in MB/s to bytes per
// simulation hour. The paper expresses recovery bandwidth in MB/s
// (decimal megabytes, as drive vendors do).
func RecoveryBandwidthBps(mbps float64) float64 {
	return mbps * 1e6 * 3600 // bytes per hour
}

// RebuildHours returns the virtual hours needed to move bytes at mbps.
func RebuildHours(bytes int64, mbps float64) float64 {
	if mbps <= 0 {
		panic("disk: non-positive rebuild bandwidth")
	}
	return float64(bytes) / RecoveryBandwidthBps(mbps)
}
