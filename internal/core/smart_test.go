package core

import (
	"testing"

	"repro/internal/workload"
)

func TestSmartValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.SmartAccuracy = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("accuracy > 1 accepted")
	}
	cfg = smallConfig()
	cfg.SmartLeadHours = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative lead accepted")
	}
}

func TestSmartDrainHappens(t *testing.T) {
	cfg := smallConfig()
	cfg.SmartAccuracy = 1
	cfg.SmartLeadHours = 72
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedFailures == 0 {
		t.Fatal("perfect monitor predicted nothing")
	}
	if res.DrainedBlocks == 0 {
		t.Fatal("no blocks drained despite perfect prediction")
	}
}

func TestSmartDisabledByDefault(t *testing.T) {
	simr, err := NewSimulator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedFailures != 0 || res.DrainedBlocks != 0 {
		t.Fatal("prediction active without configuration")
	}
}

func TestSmartReducesRebuildLoad(t *testing.T) {
	// With a perfect long-lead monitor, most failed drives were drained
	// (retired) beforehand, so reactive rebuilds collapse.
	base := smallConfig()
	const runs = 10
	noSmart, err := MonteCarlo(base, MonteCarloOptions{Runs: runs, BaseSeed: 31})
	if err != nil {
		t.Fatal(err)
	}
	withSmart := base
	withSmart.SmartAccuracy = 1
	withSmart.SmartLeadHours = 24 * 14 // two weeks of warning
	sm, err := MonteCarlo(withSmart, MonteCarloOptions{Runs: runs, BaseSeed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if sm.BlocksRebuilt.Mean() >= noSmart.BlocksRebuilt.Mean() {
		t.Fatalf("smart draining did not reduce reactive rebuilds: %v >= %v",
			sm.BlocksRebuilt.Mean(), noSmart.BlocksRebuilt.Mean())
	}
}

// TestIdleRecoveryRuns: adaptive recovery (the idle throttle policy)
// runs without a demand model and still rebuilds.
func TestIdleRecoveryRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyIdle}
	simr, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskFailures > 0 && res.BlocksRebuilt == 0 {
		t.Fatal("adaptive recovery rebuilt nothing")
	}
}

func TestAdaptiveShortensSpareWindows(t *testing.T) {
	// The spare engine's long serialized rebuilds benefit from night-time
	// bandwidth; mean windows must not grow under the adaptive model.
	base := smallConfig()
	base.UseFARM = false
	base.GroupBytes = 50 * GBtest
	const runs = 8
	fixed, err := MonteCarlo(base, MonteCarloOptions{Runs: runs, BaseSeed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ad := base
	ad.Throttle = workload.ThrottleConfig{Policy: workload.PolicyIdle}
	adaptive, err := MonteCarlo(ad, MonteCarloOptions{Runs: runs, BaseSeed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.WindowHours.Mean() > fixed.WindowHours.Mean() {
		t.Fatalf("adaptive windows %v longer than fixed %v",
			adaptive.WindowHours.Mean(), fixed.WindowHours.Mean())
	}
}

// GBtest avoids importing disk here just for the constant.
const GBtest = int64(1) << 30
