package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Counter is a monotone event counter. The zero value is ready to use
// once obtained from a Registry.
type Counter struct {
	v uint64
}

// Inc adds one.
//
//farm:hotpath registry record path, gated by TestRegistryRecordZeroAlloc
func (c *Counter) Inc() { c.v++ }

// Add adds n.
//
//farm:hotpath registry record path, gated by TestRegistryRecordZeroAlloc
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a last-value instrument for sampled system state.
type Gauge struct {
	v float64
}

// Set overwrites the gauge.
//
//farm:hotpath registry record path, gated by TestRegistryRecordZeroAlloc
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d.
//
//farm:hotpath registry record path, gated by TestRegistryRecordZeroAlloc
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current level.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket histogram: counts per bucket, plus total
// count and sum. Bucket i counts observations v <= bounds[i]; an
// implicit +Inf bucket catches the rest. Buckets are fixed at
// registration, so the record path is a branchless binary search over a
// preallocated array — no allocation, ever.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
}

// Observe bins one observation. NaN observations are dropped: they
// would poison the running sum, and a NaN phase duration is a simulator
// bug the validation layer catches, not a value worth binning.
//
//farm:hotpath registry record path, gated by TestRegistryRecordZeroAlloc
func (h *Histogram) Observe(v float64) {
	if v != v { // NaN
		return
	}
	h.count++
	h.sum += v
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper bounds (caller must not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket counts, the last entry being the
// +Inf bucket (caller must not mutate).
func (h *Histogram) BucketCounts() []uint64 { return h.counts }

// Registry is a deterministic metrics registry. Registration (Counter,
// Gauge, Histogram) happens at run setup and may allocate; the handles it
// returns record with zero allocation. A Registry is not safe for
// concurrent use — a simulation run is single-threaded, and each Monte
// Carlo run gets its own Registry, merged in run-index order afterwards.
// Each instrument kind is an array indexed by Name; nil means the name
// is not registered as that kind.
type Registry struct {
	counters [len(names)]*Counter
	gauges   [len(names)]*Gauge
	hists    [len(names)]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// byName lists every Name in name order: the order Merge and both
// expositions walk the registry in.
var byName = func() (out [len(names)]Name) {
	for i := range out {
		out[i] = Name(i)
	}
	sort.Slice(out[:], func(i, j int) bool { return names[out[i]] < names[out[j]] })
	return out
}()

// mustNamed panics unless n is a catalogue name. The zero Name is
// unnamed and would be exported as an empty metric name; a Name past the
// table has no name at all.
func mustNamed(n Name) {
	if n == 0 || int(n) >= len(names) {
		panic(fmt.Sprintf("obs: metric %d is not in the name table", n))
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(n Name) *Counter {
	mustNamed(n)
	if r.counters[n] == nil {
		r.counters[n] = &Counter{}
	}
	return r.counters[n]
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(n Name) *Gauge {
	mustNamed(n)
	if r.gauges[n] == nil {
		r.gauges[n] = &Gauge{}
	}
	return r.gauges[n]
}

// Histogram returns the named histogram, registering it with the given
// bucket upper bounds (strictly increasing) on first use. Re-registering
// with different bounds panics: bucket layouts must agree for merging.
func (r *Registry) Histogram(n Name, bounds []float64) *Histogram {
	mustNamed(n)
	if h := r.hists[n]; h != nil {
		if !sameBounds(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", n))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", n))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[n] = h
	return h
}

// ErrMergeMismatch reports a histogram bucket-layout mismatch on merge.
var ErrMergeMismatch = errors.New("obs: histogram bucket layouts differ")

// Merge folds another registry into this one: counters and histogram
// buckets add, gauges add (a merged gauge is the level summed across
// runs — "active rebuilds across the campaign"). Addition is commutative
// and exact for the integer instruments; for byte-identical float sums,
// merge in run-index order (the Monte Carlo driver does).
func (r *Registry) Merge(o *Registry) error {
	// Merging walks the source in name order so the float folds below
	// (gauge adds, histogram sums) see a deterministic sequence even
	// within one source registry.
	for _, n := range byName {
		if c := o.counters[n]; c != nil {
			r.Counter(n).Add(c.v)
		}
	}
	for _, n := range byName {
		if g := o.gauges[n]; g != nil {
			r.Gauge(n).Add(g.v)
		}
	}
	for _, n := range byName {
		oh := o.hists[n]
		if oh == nil {
			continue
		}
		h := r.hists[n]
		if h == nil {
			h = r.Histogram(n, oh.bounds)
		}
		if !sameBounds(h.bounds, oh.bounds) {
			return fmt.Errorf("%w: %s", ErrMergeMismatch, n)
		}
		for i := range oh.counts {
			h.counts[i] += oh.counts[i]
		}
		h.count += oh.count
		h.sum += oh.sum
	}
	return nil
}

// sameBounds reports whether two bucket layouts are identical.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteJSONL writes one JSON object per metric, sorted by name:
//
//	{"name":"blocks_rebuilt_total","type":"counter","value":17}
//	{"name":"rebuild_window_hours","type":"histogram","count":9,"sum":1.25,"bounds":[...],"counts":[...]}
func (r *Registry) WriteJSONL(w io.Writer) error {
	for _, n := range byName {
		if c := r.counters[n]; c != nil {
			if _, err := fmt.Fprintf(w, "{\"name\":%q,\"type\":\"counter\",\"value\":%d}\n",
				n, c.v); err != nil {
				return err
			}
		}
	}
	for _, n := range byName {
		if g := r.gauges[n]; g != nil {
			if _, err := fmt.Fprintf(w, "{\"name\":%q,\"type\":\"gauge\",\"value\":%s}\n",
				n, jsonFloat(g.v)); err != nil {
				return err
			}
		}
	}
	for _, n := range byName {
		if h := r.hists[n]; h != nil {
			if _, err := fmt.Fprintf(w, "{\"name\":%q,\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"bounds\":%s,\"counts\":%s}\n",
				n, h.count, jsonFloat(h.sum), jsonFloats(h.bounds), jsonUints(h.counts)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4), metrics sorted by name. Histograms follow the
// cumulative-bucket convention with `le` labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, n := range byName {
		if c := r.counters[n]; c != nil {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.v); err != nil {
				return err
			}
		}
	}
	for _, n := range byName {
		if g := r.gauges[n]; g != nil {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(g.v)); err != nil {
				return err
			}
		}
	}
	for _, n := range byName {
		h := r.hists[n]
		if h == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			n, h.count, n, promFloat(h.sum), n, h.count); err != nil {
			return err
		}
	}
	return nil
}

// jsonFloat renders a float as JSON (NaN/Inf become null — JSON has no
// spelling for them, and a poisoned gauge should be visible, not a
// parse error downstream).
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFloat renders a float for Prometheus text format.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func jsonFloats(vs []float64) string {
	out := make([]byte, 0, 2+8*len(vs))
	out = append(out, '[')
	for i, v := range vs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, jsonFloat(v)...)
	}
	return string(append(out, ']'))
}

func jsonUints(vs []uint64) string {
	out := make([]byte, 0, 2+4*len(vs))
	out = append(out, '[')
	for i, v := range vs {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, v, 10)
	}
	return string(append(out, ']'))
}
