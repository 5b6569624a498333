package obs

import (
	"errors"
	"fmt"
	"math"
)

// RunObserver bundles the per-run observability configuration the core
// simulator threads through its layers. Every field is optional; the
// zero value (and a nil *RunObserver) disables the corresponding
// instrument and leaves the simulation untouched.
type RunObserver struct {
	// Registry, when non-nil, receives the metric catalogue of the run:
	// the per-rebuild histograms record live, while the outcome counters
	// are added and the gauges latched once, at the horizon. Counters
	// accumulate across runs that reuse the observer.
	Registry *Registry
	// Spans, when non-nil, receives a rebuild-lifecycle span per block
	// rebuild: a SpanLog keeps them all, the forensic analyzer only the
	// open ones.
	Spans SpanSink
	// Series, when non-nil together with a positive SampleEveryHours,
	// receives periodic system-state samples.
	Series *Series
	// SampleEveryHours is the sampling cadence in simulated hours.
	SampleEveryHours float64
}

// ErrSampleCadence reports an invalid sampler configuration.
var ErrSampleCadence = errors.New("obs: non-positive sample cadence with a Series configured")

// Validate checks the observer configuration.
func (o *RunObserver) Validate() error {
	if o == nil {
		return nil
	}
	if math.IsNaN(o.SampleEveryHours) || math.IsInf(o.SampleEveryHours, 0) {
		return fmt.Errorf("obs: SampleEveryHours is not finite")
	}
	if o.Series != nil && o.SampleEveryHours <= 0 {
		return ErrSampleCadence
	}
	return nil
}
