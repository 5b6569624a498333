package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/trace"
)

func TestRecordedExpectations(t *testing.T) {
	exp, err := parseExpectations(expectJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		e, ok := exp[w.name]
		if !ok {
			t.Errorf("%s: no recorded expectation", w.name)
			continue
		}
		if o := (options{seed: 1, expect: exp}); o.expectationFor(w) == nil {
			t.Errorf("%s: expectation %+v does not cover seed 1 with %d trajectories", w.name, e, w.batch)
		}
		if e.Outputs.DiskFailures == 0 || e.Outputs.BlocksRebuilt == 0 {
			t.Errorf("%s: implausible expectation %+v", w.name, e.Outputs)
		}
	}
}

func TestTamperedExpectationFails(t *testing.T) {
	exp, err := parseExpectations(expectJSON)
	if err != nil {
		t.Fatal(err)
	}
	e := exp["spare-small-mc"]
	observed := []outputs{e.Outputs, e.Outputs}
	if err := checkReps(observed, &e); err != nil {
		t.Fatalf("untampered expectation: %v", err)
	}
	for name, tamper := range map[string]func(o *outputs){
		"blocks":  func(o *outputs) { o.BlocksRebuilt++ },
		"losses":  func(o *outputs) { o.LostGroups++ },
		"deaths":  func(o *outputs) { o.DiskFailures-- },
		"p(loss)": func(o *outputs) { o.PLoss += 1e-12 },
		"window":  func(o *outputs) { o.MeanWindowHours *= 1 + 1e-6 },
	} {
		bad := e
		tamper(&bad.Outputs)
		if err := checkReps(observed, &bad); err == nil {
			t.Errorf("tampered %s: check passed", name)
		}
	}
	if err := checkReps([]outputs{e.Outputs, {}}, nil); err == nil || !strings.Contains(err.Error(), "repetition 1") {
		t.Errorf("disagreeing repetitions: %v", err)
	}
}

func TestCheckPostmortems(t *testing.T) {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindDiskFail},
		{Time: 2, Kind: trace.KindDataLoss},
		{Time: 3, Kind: trace.KindDropped},
	}
	one := forensics.Postmortem{Blame: forensics.Blame{Transfer: 0.25, Queue: 0.75}}
	if err := checkPostmortems(events, &forensics.Report{Posts: []forensics.Postmortem{one, one}}); err != nil {
		t.Errorf("well-formed report: %v", err)
	}
	if err := checkPostmortems(events, &forensics.Report{Posts: []forensics.Postmortem{one}}); err == nil {
		t.Error("one postmortem for two losses passed")
	}
	short := forensics.Postmortem{Blame: forensics.Blame{Transfer: 0.5}}
	if err := checkPostmortems(events, &forensics.Report{Posts: []forensics.Postmortem{one, short}}); err == nil {
		t.Error("blame summing to 0.5 passed")
	}
}

func TestInvariantsHoldOnMiniatures(t *testing.T) {
	for _, w := range workloads {
		if err := checkInvariants(miniature(w).config(), 3); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestOutputsOfRunsFoldsLikeMonteCarlo(t *testing.T) {
	cfg := miniature(workloads[3]).config()
	res, err := core.MonteCarlo(cfg, core.MonteCarloOptions{Runs: 3, Workers: 2, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runs []core.RunResult
	for i := uint64(0); i < 3; i++ {
		r, err := s.Run(5 + i)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if err := outputsOfRuns(runs).diff(outputsOfResult(res)); err != nil {
		t.Error(err)
	}
}
