package obs

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryRecordZeroAlloc is the gate the //farm:hotpath annotations
// in registry.go point at: once handles are resolved, Inc/Add/Set/Observe
// must not allocate.
func TestRegistryRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MetricBlocksRebuilt)
	g := r.Gauge(MetricActiveRebuilds)
	h := r.Histogram(MetricWindowHours, PhaseBounds)

	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
	}); n != 0 {
		t.Fatalf("counter record path allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		g.Set(4.5)
		g.Add(-1.25)
	}); n != 0 {
		t.Fatalf("gauge record path allocates: %v allocs/op", n)
	}
	v := 0.0009
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v *= 1.001
	}); n != 0 {
		t.Fatalf("histogram record path allocates: %v allocs/op", n)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MetricRetries)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter(MetricRetries); c2 != c {
		t.Fatalf("re-registration returned a different counter handle")
	}

	g := r.Gauge(MetricBusyDisks)
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	if g2 := r.Gauge(MetricBusyDisks); g2 != g {
		t.Fatalf("re-registration returned a different gauge handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MetricWindowHours, []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	// Bucket i counts v <= bounds[i] (non-cumulative internally; the
	// cumulative rendering happens at exposition time).
	want := []uint64{2, 2, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+5+10+99+1000 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// +Inf lands in the overflow bucket; NaN is dropped entirely.
	h.Observe(math.Inf(1))
	if got := h.BucketCounts()[3]; got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
	h.Observe(math.NaN())
	if h.Count() != 7 {
		t.Fatalf("NaN observation counted: %d", h.Count())
	}
	if math.IsNaN(h.Sum()) {
		t.Fatalf("NaN observation poisoned the sum")
	}
}

func TestHistogramBoundMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram(MetricWindowHours, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with different bounds did not panic")
		}
	}()
	r.Histogram(MetricWindowHours, []float64{1, 3})
}

// TestMetricNameTable: every catalogue name, from the first constant to
// the last, is a unique snake_case [a-z_]+ string, and only the zero
// Name is unnamed.
func TestMetricNameTable(t *testing.T) {
	if len(names) != int(MetricBlameStretch)+1 {
		t.Fatalf("name table has %d rows, want %d (the last constant + 1)", len(names), int(MetricBlameStretch)+1)
	}
	if names[0] != "" {
		t.Errorf("zero Name is named %q", names[0])
	}
	snake := regexp.MustCompile(`^[a-z_]+$`)
	seen := map[string]Name{}
	for n := Name(1); int(n) < len(names); n++ {
		s := n.String()
		if !snake.MatchString(s) {
			t.Errorf("metric %d name %q is not snake_case [a-z_]+", n, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("metrics %d and %d share the name %q", prev, n, s)
		}
		seen[s] = n
	}
}

// TestBadNamePanics: registering the unnamed zero Name, or a Name past
// the table, panics for every instrument kind.
func TestBadNamePanics(t *testing.T) {
	for _, bad := range []Name{0, Name(len(names)), 255} {
		for _, c := range []struct {
			kind     string
			register func(*Registry)
		}{
			{"counter", func(r *Registry) { r.Counter(bad) }},
			{"gauge", func(r *Registry) { r.Gauge(bad) }},
			{"histogram", func(r *Registry) { r.Histogram(bad, PhaseBounds) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s name %d did not panic", c.kind, bad)
					}
				}()
				c.register(NewRegistry())
			}()
		}
	}
}

func TestBadBoundsPanics(t *testing.T) {
	for _, bad := range [][]float64{
		{1, 1},
		{2, 1},
		{1, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bad)
				}
			}()
			NewRegistry().Histogram(MetricWindowHours, bad)
		}()
	}
}

func fillRegistry(r *Registry) {
	r.Counter(MetricBlocksRebuilt).Add(10)
	r.Counter(MetricRetries).Add(2)
	r.Gauge(MetricActiveRebuilds).Set(3)
	h := r.Histogram(MetricWindowHours, PhaseBounds)
	h.Observe(0.02)
	h.Observe(7)
	h.Observe(2000)
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fillRegistry(a)
	fillRegistry(b)
	b.Counter(MetricBlocksRebuilt).Add(5)
	b.Gauge(MetricActiveRebuilds).Set(9)

	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := a.Counter(MetricBlocksRebuilt).Value(); got != 25 {
		t.Fatalf("merged counter = %d, want 25", got)
	}
	if got := a.Gauge(MetricActiveRebuilds).Value(); got != 12 {
		t.Fatalf("merged gauge = %v, want 12 (gauges add)", got)
	}
	h := a.Histogram(MetricWindowHours, PhaseBounds)
	if h.Count() != 6 {
		t.Fatalf("merged hist count = %d, want 6", h.Count())
	}

	// Merging into an empty registry adopts the source's instruments.
	e := NewRegistry()
	if err := e.Merge(b); err != nil {
		t.Fatalf("merge into empty: %v", err)
	}
	if got := e.Counter(MetricBlocksRebuilt).Value(); got != 15 {
		t.Fatalf("adopted counter = %d, want 15", got)
	}
}

func TestMergeBoundMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram(MetricWindowHours, []float64{1, 2})
	b.Histogram(MetricWindowHours, []float64{1, 3})
	if err := a.Merge(b); err == nil {
		t.Fatalf("merge with mismatched bounds did not error")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	fillRegistry(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE blocks_rebuilt_total counter",
		"blocks_rebuilt_total 10",
		"# TYPE active_rebuilds gauge",
		"active_rebuilds 3",
		"# TYPE rebuild_window_hours histogram",
		`rebuild_window_hours_bucket{le="0.05"} 1`, // cumulative le buckets
		`rebuild_window_hours_bucket{le="+Inf"} 3`,
		"rebuild_window_hours_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	render := func() string {
		r := NewRegistry()
		fillRegistry(r)
		var sb strings.Builder
		if err := r.WriteJSONL(&sb); err != nil {
			t.Fatalf("jsonl: %v", err)
		}
		return sb.String()
	}
	a := render()
	for i := 0; i < 10; i++ {
		if b := render(); b != a {
			t.Fatalf("JSONL output not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
	if !strings.Contains(a, `"name":"blocks_rebuilt_total"`) {
		t.Fatalf("JSONL missing counter entry:\n%s", a)
	}
}
