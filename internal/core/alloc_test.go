package core

import (
	"testing"

	"repro/internal/disk"
)

// TestSingleRunAllocCeiling is the allocation-regression gate for the full
// single-run path — kernel, cluster, placement, recovery, replacement and
// metrics together — at the benchmark configuration BENCH_*.json records
// (50 TB user data, 10 GB groups, FARM engine). The ceiling is the
// SingleRunFARM benchmark figure (allocs/op at -benchtime=50x), which the
// CI bench smoke gates too. The arena event queue and lazy group
// materialization brought it to 7415; counting each run outcome once in
// the RunResult's tally, with no metric sinks for unobserved runs, took
// it to 7408 (this test's steady-state measurement: 7225, 7246 under
// -race). Any change that drifts allocations back above it fails
// `go test`, not just a benchmark eyeball.
func TestSingleRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 7408 // SingleRunFARM allocs/op with the per-run tally
	cfg := DefaultConfig()
	cfg.TotalDataBytes = 50 * disk.TB
	cfg.GroupBytes = 10 * disk.GB
	cfg.UseFARM = true
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	run := func() {
		if _, err := s.Run(seed); err != nil {
			t.Fatal(err)
		}
		seed++
	}
	// The BENCH_* figures are steady-state averages over hundreds of
	// runs; warm the simulator past its allocation high-water mark
	// (lazy group maps, event arena chunks) before measuring, or the
	// first runs' one-time growth lands in the average.
	for i := 0; i < 30; i++ {
		run()
	}
	if n := testing.AllocsPerRun(20, run); n > ceiling {
		t.Fatalf("full single run allocates %.0f times, ceiling %d", n, ceiling)
	}
}
