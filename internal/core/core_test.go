package core

import (
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/redundancy"
	"repro/internal/workload"
)

// smallConfig is a laptop-sized system that still exhibits the paper's
// dynamics: ~50 disks, 20 TB of user data, two-way mirroring.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalDataBytes = 10 * disk.TB
	cfg.GroupBytes = 10 * disk.GB
	return cfg
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TotalDataBytes != 2*disk.PB {
		t.Error("base total data should be 2 PB")
	}
	if cfg.GroupBytes != 10*disk.GB {
		t.Error("base group size should be 10 GB")
	}
	if cfg.Scheme != (redundancy.Scheme{M: 1, N: 2}) {
		t.Error("base scheme should be two-way mirroring")
	}
	if cfg.DetectionLatencyHours*3600 != 30 {
		t.Error("base detection latency should be 30 s")
	}
	if cfg.RecoveryMBps != 16 {
		t.Error("base recovery bandwidth should be 16 MB/s")
	}
	if cfg.SimHours != 6*8760 {
		t.Error("base horizon should be 6 years")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.TotalDataBytes = 0 },
		func(c *Config) { c.GroupBytes = 0 },
		func(c *Config) { c.GroupBytes = c.TotalDataBytes * 2 },
		func(c *Config) { c.Scheme = redundancy.Scheme{M: 0, N: 2} },
		func(c *Config) { c.DiskCapacityBytes = 0 },
		func(c *Config) { c.DiskBandwidthMBps = 0 },
		func(c *Config) { c.RecoveryMBps = 0 },
		func(c *Config) { c.RecoveryMBps = 1000 },
		func(c *Config) { c.DetectionLatencyHours = -1 },
		func(c *Config) { c.InitialUtilization = 0 },
		func(c *Config) { c.InitialUtilization = 1.2 },
		func(c *Config) { c.SimHours = 0 },
		func(c *Config) { c.VintageScale = 0 },
		func(c *Config) { c.ReplaceTrigger = -0.1 },
		func(c *Config) { c.ReplaceTrigger = 1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestConfigValidateThrottleInputs: validation follows the policy's
// inputs. Only aimd and deadline read the fleet load, so only they need
// a demand model; no policy may floor or cap recovery above the drive.
func TestConfigValidateThrottleInputs(t *testing.T) {
	demand := workload.DemandConfig{BaseShare: 0.3}
	cases := []struct {
		name     string
		throttle workload.ThrottleConfig
		demand   workload.DemandConfig
		ok       bool
	}{
		{"idle-without-demand", workload.ThrottleConfig{Policy: workload.PolicyIdle}, workload.DemandConfig{}, true},
		{"fixed-without-demand", workload.ThrottleConfig{Policy: workload.PolicyFixed}, workload.DemandConfig{}, true},
		{"aimd-without-demand", workload.ThrottleConfig{Policy: workload.PolicyAIMD}, workload.DemandConfig{}, false},
		{"deadline-without-demand", workload.ThrottleConfig{Policy: workload.PolicyDeadline}, workload.DemandConfig{}, false},
		{"aimd-with-demand", workload.ThrottleConfig{Policy: workload.PolicyAIMD}, demand, true},
		{"idle-floor-above-disk", workload.ThrottleConfig{Policy: workload.PolicyIdle, FloorMBps: 100}, workload.DemandConfig{}, false},
		{"fixed-floor-at-disk", workload.ThrottleConfig{Policy: workload.PolicyFixed, FloorMBps: 80}, workload.DemandConfig{}, true},
		{"aimd-ceiling-above-disk", workload.ThrottleConfig{Policy: workload.PolicyAIMD, MaxMBps: 100}, demand, false},
		{"aimd-ceiling-at-disk", workload.ThrottleConfig{Policy: workload.PolicyAIMD, MaxMBps: 80}, demand, true},
	}
	for _, tc := range cases {
		cfg := smallConfig()
		cfg.Throttle = tc.throttle
		cfg.Demand = tc.demand
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestThrottleCeilingWithinDrive: on a drive slower than the default
// 64 MB/s ceiling, an AIMD throttle on a quiet fleet ramps to the
// drive's bandwidth and no further.
func TestThrottleCeilingWithinDrive(t *testing.T) {
	cfg := smallConfig()
	cfg.DiskBandwidthMBps = 40
	cfg.Demand = workload.DemandConfig{BaseShare: 0.05}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8}
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThrottleMeanMBps <= cfg.Throttle.FloorMBps {
		t.Fatalf("mean grant %v MB/s never left the floor; the check is vacuous", res.ThrottleMeanMBps)
	}
	if res.ThrottleMeanMBps > cfg.DiskBandwidthMBps {
		t.Fatalf("mean grant %v MB/s exceeds the %v MB/s drive", res.ThrottleMeanMBps, cfg.DiskBandwidthMBps)
	}
}

// TestThrottleDefaultFloorWithinSlowDrive: with FloorMBps left at zero
// on a 10 MB/s drive, every grant of the fixed, idle and aimd policies
// stays within the drive, under the heavy load that pins aimd to its
// floor.
func TestThrottleDefaultFloorWithinSlowDrive(t *testing.T) {
	for _, policy := range []string{workload.PolicyFixed, workload.PolicyIdle, workload.PolicyAIMD} {
		cfg := smallConfig()
		cfg.DiskBandwidthMBps = 10
		cfg.RecoveryMBps = 8
		cfg.Demand = workload.DemandConfig{BaseShare: 0.8}
		cfg.Throttle = workload.ThrottleConfig{Policy: policy}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		st, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := st.play()
		grants := &st.engine.Stats().ThrottleMBps
		if grants.N() == 0 {
			t.Fatalf("%s: no throttle decision was made; the check is vacuous", policy)
		}
		if grants.Max() > cfg.DiskBandwidthMBps || res.ThrottleMeanMBps > cfg.DiskBandwidthMBps {
			t.Errorf("%s: grants up to %v MB/s (mean %v) on the %v MB/s drive",
				policy, grants.Max(), res.ThrottleMeanMBps, cfg.DiskBandwidthMBps)
		}
	}
}

func TestNumGroups(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.NumGroups(); got != 209715 {
		t.Fatalf("2 PB / 10 GB = %d groups, want 209715", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	simr, err := NewSimulator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := simr.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simr.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	if a.DataLoss != b.DataLoss || a.DiskFailures != b.DiskFailures ||
		a.BlocksRebuilt != b.BlocksRebuilt || a.LostGroups != b.LostGroups {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	simr, err := NewSimulator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := simr.Run(1)
	diff := false
	for seed := uint64(2); seed < 6; seed++ {
		b, _ := simr.Run(seed)
		if b.DiskFailures != a.DiskFailures {
			diff = true
		}
	}
	if !diff {
		t.Fatal("five different seeds produced identical failure counts")
	}
}

func TestRunBasicShape(t *testing.T) {
	simr, err := NewSimulator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disks <= 0 {
		t.Fatal("no disks")
	}
	// Over six years roughly 10% of drives fail.
	if res.DiskFailures == 0 {
		t.Fatal("no failures in six years across ~50 disks is implausible")
	}
	if res.BlocksRebuilt == 0 {
		t.Fatal("failures occurred but nothing was rebuilt")
	}
	if res.MeanWindowHours < 0 || res.MaxWindowHours < res.MeanWindowHours {
		t.Fatalf("window stats inconsistent: mean %v max %v",
			res.MeanWindowHours, res.MaxWindowHours)
	}
}

func TestCollectUtilization(t *testing.T) {
	cfg := smallConfig()
	cfg.CollectUtilization = true
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InitialUsedBytes) == 0 || len(res.FinalUsedBytes) < len(res.InitialUsedBytes) {
		t.Fatal("utilization snapshots missing")
	}
	var initTotal int64
	for _, b := range res.InitialUsedBytes {
		initTotal += b
	}
	wantRaw := cfg.Scheme.GroupRawBytes(cfg.GroupBytes) * int64(cfg.NumGroups())
	if initTotal != wantRaw {
		t.Fatalf("initial bytes %d, want raw data %d", initTotal, wantRaw)
	}
}

func TestSpareEngineRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.UseFARM = false
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskFailures > 0 && res.SparesUsed == 0 {
		t.Fatal("failures without spares under the traditional engine")
	}
}

func TestReplacementBatches(t *testing.T) {
	cfg := smallConfig()
	cfg.ReplaceTrigger = 0.02 // small trigger so batches certainly fire
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(13)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskFailures > 0 && res.BatchesAdded == 0 {
		t.Fatal("no replacement batches despite failures and a 2% trigger")
	}
	if res.BatchesAdded > 0 && res.DisksAdded == 0 {
		t.Fatal("batches added no disks")
	}
	if res.BatchesAdded > 0 && res.MigratedBytes == 0 {
		t.Fatal("batches fired but nothing migrated")
	}
}

func TestMonteCarloAggregates(t *testing.T) {
	cfg := smallConfig()
	res, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 10, BaseSeed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 10 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if res.PLoss < 0 || res.PLoss > 1 || res.PLossLo > res.PLoss || res.PLossHi < res.PLoss {
		t.Fatalf("loss estimate inconsistent: %v [%v, %v]", res.PLoss, res.PLossLo, res.PLossHi)
	}
	if res.DiskFailures.N() != 10 {
		t.Fatal("per-run stats incomplete")
	}
}

func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	a, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 6, BaseSeed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 6, BaseSeed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.PLoss != b.PLoss || a.DiskFailures.Mean() != b.DiskFailures.Mean() {
		t.Fatal("results depend on worker count")
	}
}

// TestMonteCarloByteIdenticalAcrossWorkers is the reproducibility gate
// for the streaming aggregation: the *entire* Result — every Welford
// accumulator bit included — must be identical for a fixed
// (cfg, BaseSeed, Runs) no matter how many workers computed it. The
// ordered fold guarantees this; a per-worker partial merge would not
// (Welford updates are not associative in floating point).
func TestMonteCarloByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := smallConfig()
	const runs = 16
	ref, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Result differs between Workers=1 and Workers=%d:\n%+v\nvs\n%+v",
				workers, ref, got)
		}
	}
	// And the whole thing is reproducible run-to-run.
	again, err := MonteCarlo(cfg, MonteCarloOptions{Runs: runs, BaseSeed: 42, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, again) {
		t.Fatal("repeated campaign not reproducible")
	}
}

func TestMonteCarloProgress(t *testing.T) {
	cfg := smallConfig()
	var last int
	_, err := MonteCarlo(cfg, MonteCarloOptions{
		Runs: 4, BaseSeed: 9,
		Progress: func(done, total int) {
			if total != 4 || done < 1 || done > 4 {
				t.Errorf("progress out of range: %d/%d", done, total)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Fatalf("final progress %d, want 4", last)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	if _, err := MonteCarlo(DefaultConfig(), MonteCarloOptions{Runs: 0}); err == nil {
		t.Fatal("zero runs accepted")
	}
	bad := DefaultConfig()
	bad.GroupBytes = 0
	if _, err := MonteCarlo(bad, MonteCarloOptions{Runs: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFARMBeatsSpareOnLossProbability(t *testing.T) {
	// The paper's headline (Figure 3): with FARM the probability of data
	// loss drops substantially versus the traditional scheme. Use a
	// deliberately stressed small system (long latency, modest bandwidth)
	// so both probabilities are measurable with few runs.
	cfg := smallConfig()
	cfg.GroupBytes = 50 * disk.GB
	cfg.DetectionLatencyHours = 1
	const runs = 30
	farm := cfg
	farm.UseFARM = true
	spare := cfg
	spare.UseFARM = false
	fr, err := MonteCarlo(farm, MonteCarloOptions{Runs: runs, BaseSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := MonteCarlo(spare, MonteCarloOptions{Runs: runs, BaseSeed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if fr.PLoss > sr.PLoss {
		t.Fatalf("FARM loss %v > spare loss %v", fr.PLoss, sr.PLoss)
	}
	// Windows of vulnerability must be dramatically shorter under FARM.
	if fr.WindowHours.Mean() >= sr.WindowHours.Mean() {
		t.Fatalf("FARM window %v >= spare window %v",
			fr.WindowHours.Mean(), sr.WindowHours.Mean())
	}
}

// TestFIFOOrderAcrossCompaction: the event-record queue pops in push
// order while it slides its live records down to reuse its array, and
// a queue that keeps a steady depth stops growing.
func TestFIFOOrderAcrossCompaction(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for want < next {
		if got := q.pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue left head %d, len %d", q.head, len(q.items))
	}
	// Steady depth: one push per pop at depth 10 stays in one array.
	for i := 0; i < 10; i++ {
		q.push(i)
	}
	capBefore := cap(q.items)
	for i := 0; i < 1000; i++ {
		q.push(i)
		q.pop()
	}
	if cap(q.items) != capBefore {
		t.Fatalf("steady-depth queue grew from %d to %d", capBefore, cap(q.items))
	}
}
