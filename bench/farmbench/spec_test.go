package main

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json at the repository
// root in step with the metrics and workloads this harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %q: %q", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, harness has %d", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, harness has %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
		maxBound = max(maxBound, got.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, harness has %+v", i, got, d)
		}
	}
}

// TestLintClean runs the repository's farmlint suite over this module,
// as the root module's TestRepoClean does over its own packages: every
// wall-clock read is justified, no map walk depends on order, and no
// salt collides.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package the harness imports")
	}
	diags, err := lint.Run("..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
