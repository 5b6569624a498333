package obs

import (
	"errors"
	"fmt"
	"math"
)

// FaultMetrics is the fault-injector handle bundle (internal/faults):
// read-probe classification counters.
type FaultMetrics struct {
	ProbeReads     *Counter
	ProbeTransient *Counter
	ProbeLatent    *Counter
}

// NewFaultMetrics resolves the fault-injector handles on r.
func NewFaultMetrics(r *Registry) *FaultMetrics {
	return &FaultMetrics{
		ProbeReads:     r.Counter(MetricProbeReads),
		ProbeTransient: r.Counter(MetricProbeTransient),
		ProbeLatent:    r.Counter(MetricProbeLatent),
	}
}

// StoreMetrics is the object-store handle bundle (internal/objstore):
// degraded-path data counters.
type StoreMetrics struct {
	DegradedReads  *Counter
	CorruptRegions *Counter
	Repairs        *Counter
	ShardsRebuilt  *Counter
}

// NewStoreMetrics resolves the object-store handles on r.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		DegradedReads:  r.Counter(MetricObjDegradedReads),
		CorruptRegions: r.Counter(MetricObjCorruptRegions),
		Repairs:        r.Counter(MetricObjRepairs),
		ShardsRebuilt:  r.Counter(MetricObjShardsRebuilt),
	}
}

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
	// Spans, when non-nil, records a rebuild-lifecycle span per block
	// rebuild.
	Spans *SpanLog
	// Series, when non-nil together with a positive SampleEveryHours,
	// receives periodic system-state samples.
	Series *Series
	// SampleEveryHours is the sampling cadence in simulated hours.
	SampleEveryHours float64

	// fm memoizes the fault-injector bundle over Registry, resolved on
	// first use so repeat runs against one observer re-register nothing.
	fm *FaultMetrics
}

// FaultMetrics returns the fault-injector handle bundle over Registry,
// resolving it on first call. Registry must be non-nil.
func (o *RunObserver) FaultMetrics() *FaultMetrics {
	if o.fm == nil {
		o.fm = NewFaultMetrics(o.Registry)
	}
	return o.fm
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
