package core

import (
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/forensics"
)

// TestSingleRunAllocCeiling is the allocation-regression gate for the full
// single-run path — kernel, cluster, placement, recovery, replacement and
// metrics together — at the benchmark configuration BENCH_*.json records
// (50 TB user data, 10 GB groups, FARM engine). The ceiling is the
// SingleRunFARM benchmark figure (allocs/op at -benchtime=50x), which the
// CI bench smoke gates too. The arena event queue and lazy group
// materialization brought it to 7415; counting each run outcome once in
// the RunResult's tally, with no metric sinks for unobserved runs, took
// it to 7408; typed trace payloads, which unobserved runs no longer
// format into detail strings, to 7379; pooled rebuild records with
// callbacks bound once per record, generation-stamped disk queues and
// dense per-disk indexes, to 657; one block-list arena per build and
// disk events that carry the disk id instead of a closure, to 395;
// per-disk rebuild lists drawn from one pool, disk queues threaded
// through the tasks and "rebuild-done" events that carry the source disk
// instead of a closure, to 116 (the benchmark's 105 plus 10 %; this
// test's steady-state measurement: 104, 105 under -race). Any change
// that drifts allocations back above it fails `go test`, not just a
// benchmark eyeball.
func TestSingleRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 116 // SingleRunFARM allocs/op with pooled lists and intrusive queues
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

// TestStormRunAllocCeiling gates the allocations of one everything-on
// trajectory: the forensics storm (spare engine, network faults, bursts,
// demand, throttle, maintenance, replacement) at seed 3, the pinned
// storm's seed, rerun on one simulator. Pooled per-disk rebuild
// indexes, disk queues threaded through the tasks, "rebuild-done" and
// "upgrade-end" events that carry an argument instead of a closure, and
// one fenced-id buffer per rack took it from 41 433 to 28 470. Outage,
// fail-slow recovery and spare-replenish timers that carry an argument,
// and spare-pool waits that reuse their block lists, took it to 22 089
// (22 140 under -race); the ceiling is that plus 10 %. Most of what is
// left is the spare engine's fleet growth (AddDisksModel): it replaces
// every dead drive twice.
func TestStormRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const ceiling = 24300 // forensics storm, seed 3, one run
	s, err := NewSimulator(forensicsStormConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := s.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the simulator's reusable state (event arena, slab, list
	// pool) past the first run's growth before measuring.
	for i := 0; i < 3; i++ {
		run()
	}
	if n := testing.AllocsPerRun(5, run); n > ceiling {
		t.Fatalf("one storm run allocates %.0f times, ceiling %d", n, ceiling)
	}
}

// TestForensicCampaignAllocCeiling gates the allocations of one forensic
// campaign run: the FARM growth storm at seed 3 (the pinned storm's
// seed) through MonteCarlo with one worker and a postmortem aggregate.
// The worker folds the run through its online analyzer, so what the run
// allocates follows its open rebuilds rather than its events. Recording
// the trace and the spans and analysing them afterwards cost 3 073
// allocations and 6.58 MB; the online fold costs 2 142 and 2.88 MB
// (2 177 and 2.89 MB under -race). The ceilings are that plus 10 %. The
// spare-engine storm would gate its fleet growth instead (§7 of
// DESIGN.md), which dwarfs the forensic layer there.
func TestForensicCampaignAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		allocCeiling = 2360
		byteCeiling  = 3170000
	)
	cfg := farmGrowthStormConfig()
	posts := 0
	run := func() {
		agg := forensics.NewAggregate()
		if _, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 1, Workers: 1, BaseSeed: 3, Forensics: agg}); err != nil {
			t.Fatal(err)
		}
		posts = agg.Posts
	}
	// Warm the process-wide state a first run grows, then average.
	run()
	if posts == 0 {
		t.Fatal("the campaign run wrote no postmortems; the gate is vacuous")
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	if allocs > allocCeiling {
		t.Fatalf("one forensic campaign run allocates %d times, ceiling %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Fatalf("one forensic campaign run allocates %d bytes, ceiling %d", bytes, byteCeiling)
	}
}
