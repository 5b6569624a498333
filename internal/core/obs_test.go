package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// obsStormConfig is the everything-on scenario the byte-identity gate
// runs under: gray failures, stragglers, latent errors, scrubbing,
// bursts, S.M.A.R.T. draining, and replacement batches all active, so
// every code path that records into the flight recorder is exercised.
func obsStormConfig() Config {
	cfg := failSlowStormConfig()
	cfg.Faults.LSERatePerDiskHour = 1e-5
	cfg.Faults.ScrubIntervalHours = 720
	cfg.Faults.BurstsPerYear = 1
	cfg.SmartAccuracy = 0.5
	cfg.SmartLeadHours = 24
	return cfg
}

// fullObserver returns a RunObserver with every instrument enabled.
func fullObserver() *obs.RunObserver {
	return &obs.RunObserver{
		Registry:         obs.NewRegistry(),
		Spans:            obs.NewSpanLog(),
		Series:           obs.NewSeries(),
		SampleEveryHours: 168,
	}
}

// stripSpanKinds removes the span-lifecycle event kinds (emitted only
// when spans are enabled) so an obs-on trace can be compared against an
// obs-off transcript.
func stripSpanKinds(events []trace.Event) []trace.Event {
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		if e.Kind == trace.KindRebuildQueued || e.Kind == trace.KindTransferStart {
			continue
		}
		out = append(out, e)
	}
	return out
}

// TestObsByteIdentity is the flight recorder's core contract: enabling
// the full obs stack (registry + spans + sampler) leaves RunResult and
// the trace transcript byte-identical to an unobserved run of the same
// seed. Observation is strictly read-only.
func TestObsByteIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		bare := obsStormConfig()
		rec0 := trace.NewRecorder()
		bare.Hook = rec0.Record
		s0, err := NewSimulator(bare)
		if err != nil {
			t.Fatal(err)
		}
		res0, err := s0.Run(seed)
		if err != nil {
			t.Fatal(err)
		}

		observed := obsStormConfig()
		rec1 := trace.NewRecorder()
		observed.Hook = rec1.Record
		ob := fullObserver()
		observed.Obs = ob
		s1, err := NewSimulator(observed)
		if err != nil {
			t.Fatal(err)
		}
		res1, err := s1.Run(seed)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(res0, res1) {
			t.Fatalf("seed %d: RunResult drifts with obs enabled:\n bare %+v\n obs  %+v", seed, res0, res1)
		}
		got, want := stripSpanKinds(rec1.Events()), rec0.Events()
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace length drifts: %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace event %d drifts: %+v vs %+v", seed, i, got[i], want[i])
			}
		}

		// The instruments actually recorded: every exported outcome
		// counter equals its result field, spans cover every rebuild, and
		// the sampler took its samples.
		reg := ob.Registry
		for _, o := range outcomes {
			if len(o.metric) == 0 {
				continue
			}
			if n, want := reg.Counter(o.metric).Value(), uint64(o.n(&res1.Tally)); n != want {
				t.Errorf("seed %d: %s = %d, result says %d", seed, o.metric, n, want)
			}
		}
		done := 0
		for _, sp := range ob.Spans.Spans() {
			if sp.Outcome == obs.OutcomeDone {
				done++
			}
		}
		if done != res1.BlocksRebuilt {
			t.Errorf("seed %d: %d done spans, result says %d rebuilds", seed, done, res1.BlocksRebuilt)
		}
		if h := reg.Histogram(obs.MetricWindowHours, obs.PhaseBounds); h.Count() != uint64(done) {
			t.Errorf("seed %d: window histogram has %d observations, want %d", seed, h.Count(), done)
		}
		wantSamples := int(float64(observed.SimHours)/ob.SampleEveryHours) + 1
		if ob.Series.Len() != wantSamples {
			t.Errorf("seed %d: %d samples, want %d", seed, ob.Series.Len(), wantSamples)
		}
	}
}

// TestObsSamplerReadOnly pins the sampler-only configuration (no
// registry, no spans): pure sampling must also leave the run untouched.
func TestObsSamplerReadOnly(t *testing.T) {
	cfg := obsStormConfig()
	s0, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := s0.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	sampled := obsStormConfig()
	sampled.Obs = &obs.RunObserver{Series: obs.NewSeries(), SampleEveryHours: 24}
	s1, err := NewSimulator(sampled)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res0, res1) {
		t.Fatalf("sampler perturbed the run:\n bare    %+v\n sampled %+v", res0, res1)
	}
	if sampled.Obs.Series.Len() == 0 {
		t.Fatal("sampler recorded nothing")
	}
	last := sampled.Obs.Series.Samples()[sampled.Obs.Series.Len()-1]
	if last.T > float64(sampled.SimHours) {
		t.Fatalf("sample beyond horizon: %v > %v", last.T, sampled.SimHours)
	}
}

// TestMonteCarloTelemetryByteIdenticalAcrossWorkers: the campaign's
// merged master registry is folded in run-index order, so its exposition
// bytes must not depend on the worker count. Run under -race this also
// shakes out unsynchronized access between workers and the campaign.
func TestMonteCarloTelemetryByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := obsStormConfig()
	var wantJSON, wantProm []byte
	var wantRes Result
	for i, workers := range []int{1, 4} {
		hub := obs.NewCampaign()
		res, err := MonteCarlo(cfg, MonteCarloOptions{
			Runs: 12, BaseSeed: 500, Workers: workers, Telemetry: hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		var js, prom bytes.Buffer
		err = hub.MasterSnapshot(func(r *obs.Registry) error {
			if err := r.WriteJSONL(&js); err != nil {
				return err
			}
			return r.WritePrometheus(&prom)
		})
		if err != nil {
			t.Fatal(err)
		}
		prog := hub.Snapshot()
		wantLosses := int(res.PLoss*float64(res.Runs) + 0.5)
		if prog.RunsDone != 12 || prog.Losses != wantLosses {
			t.Fatalf("workers=%d: progress %+v disagrees with result (ploss %v over %d runs)",
				workers, prog, res.PLoss, res.Runs)
		}
		if i == 0 {
			wantJSON, wantProm, wantRes = js.Bytes(), prom.Bytes(), res
			if !bytes.Contains(wantJSON, []byte("disk_failures_total")) {
				t.Fatalf("master registry missing counters:\n%s", wantJSON)
			}
			continue
		}
		if !bytes.Equal(js.Bytes(), wantJSON) {
			t.Errorf("workers=%d: merged JSONL differs from workers=1", workers)
		}
		if !bytes.Equal(prom.Bytes(), wantProm) {
			t.Errorf("workers=%d: merged Prometheus text differs from workers=1", workers)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("workers=%d: Result differs from workers=1", workers)
		}
	}
}

// TestMonteCarloRejectsSharedObs: a per-run observer on a campaign
// config would be written by every worker at once; the campaign must
// refuse it and point at MonteCarloOptions.Telemetry.
func TestMonteCarloRejectsSharedObs(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = &obs.RunObserver{Registry: obs.NewRegistry()}
	_, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 2, BaseSeed: 1})
	if !errors.Is(err, ErrSharedObs) {
		t.Fatalf("err = %v, want ErrSharedObs", err)
	}
}

// TestObsValidation: observer misconfiguration surfaces through the
// simulator's Validate path.
func TestObsValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Obs = &obs.RunObserver{Series: obs.NewSeries()} // no cadence
	if _, err := NewSimulator(cfg); !errors.Is(err, obs.ErrSampleCadence) {
		t.Fatalf("err = %v, want ErrSampleCadence", err)
	}
}
