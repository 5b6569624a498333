package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// outputs are the simulated results a repetition is checked on. They
// read the smallest set of public Result/RunResult fields, so refactors
// of the outcome schema keep this harness compiling.
type outputs struct {
	PLoss           float64 `json:"p_loss"`
	LostGroups      int64   `json:"lost_groups"`
	DiskFailures    int64   `json:"disk_failures"`
	BlocksRebuilt   int64   `json:"blocks_rebuilt"`
	MeanWindowHours float64 `json:"mean_window_hours"`
}

// outputsOfResult reads a Monte Carlo aggregate. Its Welford means times
// the run count are the integer sums they were folded from.
func outputsOfResult(r core.Result) outputs {
	sum := func(mean float64) int64 { return int64(math.Round(mean * float64(r.Runs))) }
	return outputs{
		PLoss:           r.PLoss,
		LostGroups:      sum(r.LostGroups.Mean()),
		DiskFailures:    sum(r.DiskFailures.Mean()),
		BlocksRebuilt:   sum(r.BlocksRebuilt.Mean()),
		MeanWindowHours: r.WindowHours.Mean(),
	}
}

// outputsOfRuns folds single trajectories by the same rules as
// core.MonteCarlo: the window mean covers runs that rebuilt anything.
func outputsOfRuns(runs []core.RunResult) outputs {
	var o outputs
	var losses, windows int
	for _, r := range runs {
		if r.DataLoss {
			losses++
		}
		o.LostGroups += int64(r.LostGroups)
		o.DiskFailures += int64(r.DiskFailures)
		o.BlocksRebuilt += int64(r.BlocksRebuilt)
		if r.BlocksRebuilt > 0 {
			o.MeanWindowHours += r.MeanWindowHours
			windows++
		}
	}
	if len(runs) > 0 {
		o.PLoss = float64(losses) / float64(len(runs))
	}
	if windows > 0 {
		o.MeanWindowHours /= float64(windows)
	}
	return o
}

// diff reports the first field where o differs from want. Counts and
// P(loss) (a ratio of counts) must match exactly; the window mean to a
// relative 1e-9, so a change of summation order alone does not fail it.
func (o outputs) diff(want outputs) error {
	switch {
	case o.PLoss != want.PLoss:
		return fmt.Errorf("P(loss) %v, want %v", o.PLoss, want.PLoss)
	case o.LostGroups != want.LostGroups:
		return fmt.Errorf("lost groups %d, want %d", o.LostGroups, want.LostGroups)
	case o.DiskFailures != want.DiskFailures:
		return fmt.Errorf("disk failures %d, want %d", o.DiskFailures, want.DiskFailures)
	case o.BlocksRebuilt != want.BlocksRebuilt:
		return fmt.Errorf("blocks rebuilt %d, want %d", o.BlocksRebuilt, want.BlocksRebuilt)
	case math.Abs(o.MeanWindowHours-want.MeanWindowHours) > 1e-9*math.Abs(want.MeanWindowHours):
		return fmt.Errorf("mean window %v h, want %v h", o.MeanWindowHours, want.MeanWindowHours)
	}
	return nil
}

// expectation is one workload's recorded outputs.
type expectation struct {
	Seed         uint64  `json:"seed"`
	Trajectories int     `json:"trajectories"`
	Outputs      outputs `json:"outputs"`
}

// expectJSON holds each workload's outputs at seed 1, recorded with
// -record from the commit that defined the benchmark.
//
//go:embed expect.json
var expectJSON []byte

func parseExpectations(b []byte) (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return m, nil
}

// checkReps checks the outputs of a run's repetitions: all must agree,
// and when exp covers this seed and batch they must equal it. exp is
// nil when there is nothing recorded to compare with.
func checkReps(reps []outputs, exp *expectation) error {
	for i := 1; i < len(reps); i++ {
		if err := reps[i].diff(reps[0]); err != nil {
			return fmt.Errorf("repetition %d disagrees with repetition 0: %v", i, err)
		}
	}
	if exp != nil && len(reps) > 0 {
		if err := reps[0].diff(exp.Outputs); err != nil {
			return fmt.Errorf("seed %d: %v", exp.Seed, err)
		}
	}
	return nil
}

// tapped is one trajectory run with the read-only taps attached: a trace
// recorder on Config.Hook and a rebuild span log on Config.Obs.
type tapped struct {
	res    core.RunResult
	events []trace.Event
	spans  []*obs.Span
}

func runTapped(cfg core.Config, seed uint64) (tapped, error) {
	rec := trace.NewRecorder()
	log := obs.NewSpanLog()
	cfg.Hook = rec.Record
	cfg.Obs = &obs.RunObserver{Spans: log}
	s, err := core.NewSimulator(cfg)
	if err != nil {
		return tapped{}, err
	}
	res, err := s.Run(seed)
	return tapped{res: res, events: rec.Events(), spans: log.Spans()}, err
}

func forensicContext(cfg core.Config) forensics.Context {
	return forensics.Context{
		OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
		MaxResourcings:        cfg.Faults.MaxResourcings,
	}
}

// checkPostmortems checks forensics' contract on one trajectory: one
// postmortem per data-loss and dropped event, each blaming exactly 1.
func checkPostmortems(events []trace.Event, rep *forensics.Report) error {
	losses := 0
	for _, e := range events {
		if e.Kind == trace.KindDataLoss || e.Kind == trace.KindDropped {
			losses++
		}
	}
	if len(rep.Posts) != losses {
		return fmt.Errorf("%d postmortems for %d data-loss/dropped events", len(rep.Posts), losses)
	}
	for _, p := range rep.Posts {
		if s := p.Blame.Sum(); math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("postmortem %d blame sums to %v", p.Seq, s)
		}
	}
	return nil
}

// checkAggregate is checkPostmortems for a forensic campaign's folded
// aggregate, which keeps counts and blame sums but not the events.
func checkAggregate(a *forensics.Aggregate) error {
	if a.Posts != a.Losses+a.Drops {
		return fmt.Errorf("%d postmortems for %d losses and %d drops", a.Posts, a.Losses, a.Drops)
	}
	if s := a.BlameSum.Sum(); math.Abs(s-float64(a.Posts)) > 1e-9*float64(max(a.Posts, 1)) {
		return fmt.Errorf("blame over %d postmortems sums to %v", a.Posts, s)
	}
	return nil
}

// verifyTapped checks what must hold on every seed, given a tapped
// trajectory, the causality verdict on its trace and its forensic
// report: the trace is causal, and forensics explains every loss once
// with blame summing to 1.
func verifyTapped(t tapped, causal error, post *forensics.Report) error {
	if causal != nil {
		return fmt.Errorf("causality: %v", causal)
	}
	return checkPostmortems(t.events, post)
}

// checkInvariants runs trajectory seed tapped and verifies it.
func checkInvariants(cfg core.Config, seed uint64) error {
	t, err := runTapped(cfg, seed)
	if err != nil {
		return err
	}
	return verifyTapped(t, trace.CheckCausality(t.events), forensics.Analyze(t.events, t.spans, forensicContext(cfg)))
}
