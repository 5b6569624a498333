package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/workload"
)

// forensicsStormConfig is the everything-on scenario the postmortem
// gates run under: the obs storm (gray failures, stragglers, latent
// errors, scrubbing, bursts, S.M.A.R.T. draining) plus the
// oversubscribed fabric with network faults, a bounded spare pool,
// foreground demand with adaptive QoS, and rolling upgrades — every
// taxonomy class and stretch factor has a live producer.
func forensicsStormConfig() Config {
	cfg := obsStormConfig()
	cfg.UseFARM = false // the spare engine owns the bounded pool and queue waits
	cfg.Topology = topology.Config{
		Racks:                 10,
		UplinkMBps:            1000,
		OversubscriptionRatio: 4,
		FalseDeadHours:        24,
	}
	cfg.Faults.Network = faults.NetworkFaultConfig{
		SwitchFailsPerYear:    2,
		PowerEventsPerYear:    4,
		PowerRestoreMeanHours: 8,
		PartitionsPerYear:     50,
		PartitionMeanHours:    12,
	}
	cfg.Faults.BurstsPerYear = 6
	cfg.Faults.BurstMeanSize = 6
	cfg.Faults.SparePoolSize = 2
	cfg.Demand = workload.DemandConfig{
		BaseShare:        0.3,
		DiurnalAmplitude: 0.5,
		BurstsPerDay:     1,
		BurstShare:       0.25,
		RackSkew:         0.3,
		MaxShare:         0.7,
	}
	cfg.Throttle = workload.ThrottleConfig{Policy: workload.PolicyAIMD, FloorMBps: 8, MaxMBps: 32}
	cfg.Maintenance = MaintenanceConfig{
		DrainEveryHours:      720,
		UpgradeEveryHours:    168,
		UpgradeDurationHours: 12,
	}
	return cfg
}

// TestForensicsByteIdentity is the forensic layer's core contract:
// attaching a postmortem aggregate to a campaign must leave the Result
// byte-identical to the unobserved campaign — the analysis is a pure
// function of taps that are themselves read-only.
func TestForensicsByteIdentity(t *testing.T) {
	cfg := forensicsStormConfig()
	bare, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 6, BaseSeed: 41, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	agg := forensics.NewAggregate()
	observed, err := MonteCarlo(cfg, MonteCarloOptions{Runs: 6, BaseSeed: 41, Workers: 2, Forensics: agg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("forensics perturbed the campaign:\n bare %+v\n fore %+v", bare, observed)
	}
	if agg.Runs != 6 {
		t.Fatalf("aggregate folded %d runs, want 6", agg.Runs)
	}
}

// TestForensicsWorkerInvariant: the postmortem aggregate folds in
// run-index order, so its JSON and its registry exposition must be
// byte-identical for 1 and 4 workers. Under -race this also shakes out
// unsynchronized access between workers and the aggregate.
func TestForensicsWorkerInvariant(t *testing.T) {
	cfg := forensicsStormConfig()
	var wantJSON, wantReg []byte
	for i, workers := range []int{1, 4} {
		agg := forensics.NewAggregate()
		if _, err := MonteCarlo(cfg, MonteCarloOptions{
			Runs: 8, BaseSeed: 97, Workers: workers, Forensics: agg,
		}); err != nil {
			t.Fatal(err)
		}
		var js, reg bytes.Buffer
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := agg.Registry().WriteJSONL(&reg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantJSON, wantReg = js.Bytes(), reg.Bytes()
			if agg.Posts == 0 {
				t.Fatal("storm campaign produced no postmortems; the gate is vacuous")
			}
			continue
		}
		if !bytes.Equal(js.Bytes(), wantJSON) {
			t.Errorf("workers=%d: aggregate JSON differs from workers=1:\n%s\nvs\n%s",
				workers, js.Bytes(), wantJSON)
		}
		if !bytes.Equal(reg.Bytes(), wantReg) {
			t.Errorf("workers=%d: forensic registry differs from workers=1", workers)
		}
	}
}

// TestForensicsFilteredTap: a forensic campaign folds each run online
// through the worker's analyzer, fed only by the run's trace hook and
// span sink, and its aggregate must be byte-identical — JSON and
// registry — to folding Analyze over every run's full recorded trace and
// span log from Simulator.Run, on both engines, over seeds 1–8. The
// zero-lag variants (no detection latency, no false-dead patience) close
// every loss's candidate set at once, so the online analyzer settles
// each loss the moment the clock moves past it.
func TestForensicsFilteredTap(t *testing.T) {
	const runs, base = 8, 1
	spare := forensicsStormConfig()
	farm := spare
	farm.UseFARM = true
	zeroLag := func(cfg Config) Config {
		cfg.DetectionLatencyHours = 0
		cfg.Topology.FalseDeadHours = 0
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"spare-storm", spare},
		{"farm-storm", farm},
		{"spare-storm-zero-lag", zeroLag(spare)},
		{"farm-storm-zero-lag", zeroLag(farm)},
	} {
		t.Run(c.name, func(t *testing.T) {
			full := forensics.NewAggregate()
			for i := uint64(0); i < runs; i++ {
				run := c.cfg
				rec := trace.NewRecorder()
				run.Hook = rec.Record
				spans := obs.NewSpanLog()
				run.Obs = &obs.RunObserver{Spans: spans}
				s, err := NewSimulator(run)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(base + i); err != nil {
					t.Fatal(err)
				}
				full.AddRun(forensics.Analyze(rec.Events(), spans.Spans(), c.cfg.ForensicContext()))
			}
			tapped := forensics.NewAggregate()
			if _, err := MonteCarlo(c.cfg, MonteCarloOptions{
				Runs: runs, BaseSeed: base, Workers: 2, Forensics: tapped,
			}); err != nil {
				t.Fatal(err)
			}
			if full.Losses == 0 || full.Drops == 0 {
				t.Fatalf("%d losses and %d drops; the gate is vacuous", full.Losses, full.Drops)
			}
			wantJSON, wantReg := aggregateBytes(t, full)
			gotJSON, gotReg := aggregateBytes(t, tapped)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("campaign aggregate JSON differs from the full-stream fold:\n%s\nvs\n%s", gotJSON, wantJSON)
			}
			if !bytes.Equal(gotReg, wantReg) {
				t.Error("campaign registry differs from the full-stream fold")
			}
		})
	}
}

// aggregateBytes renders an aggregate's JSON and its registry's JSONL.
func aggregateBytes(t *testing.T, a *forensics.Aggregate) (js, reg []byte) {
	t.Helper()
	var jb, rb bytes.Buffer
	if err := a.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := a.Registry().WriteJSONL(&rb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), rb.Bytes()
}

// TestForensicsStormCoverage is the completeness gate: in the
// everything-on storm, every data-loss and every dropped-rebuild event
// gets exactly one postmortem, every postmortem carries a classified
// verdict and a blame vector summing to 1 within 1e-9, and across the
// seeds both event families actually occur (the gate is not vacuous).
func TestForensicsStormCoverage(t *testing.T) {
	cfg := forensicsStormConfig()
	ctx := forensics.Context{
		OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
		MaxResourcings:        cfg.Faults.MaxResourcings,
	}
	losses, drops := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		run := cfg
		run.Seed = seed
		rec := trace.NewRecorder()
		run.Hook = rec.Record
		spans := obs.NewSpanLog()
		run.Obs = &obs.RunObserver{Spans: spans}
		if _, err := runOnce(run); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range rec.Events() {
			if e.Kind == trace.KindDataLoss || e.Kind == trace.KindDropped {
				want++
			}
		}
		rep := forensics.Analyze(rec.Events(), spans.Spans(), ctx)
		if len(rep.Posts) != want {
			t.Fatalf("seed %d: %d postmortems for %d loss/drop events", seed, len(rep.Posts), want)
		}
		if rep.Losses+rep.Drops != want {
			t.Fatalf("seed %d: losses %d + drops %d != %d events", seed, rep.Losses, rep.Drops, want)
		}
		losses += rep.Losses
		drops += rep.Drops
		for i := range rep.Posts {
			p := &rep.Posts[i]
			if p.Class == "" {
				t.Fatalf("seed %d: postmortem %d has no class", seed, i)
			}
			if s := p.Blame.Sum(); math.Abs(s-1) > 1e-9 {
				t.Fatalf("seed %d: postmortem %d (%s) blame sums to %.12f", seed, i, p.Class, s)
			}
			if p.WindowHours < 0 {
				t.Fatalf("seed %d: postmortem %d has negative window %v", seed, i, p.WindowHours)
			}
			// Drops have span evidence by construction (spans were on),
			// so none may fall back to the unattributed class.
			if p.Kind == trace.KindDropped && p.Class == forensics.ClassUnattributed {
				t.Fatalf("seed %d: dropped rebuild left unattributed: %+v", seed, p)
			}
		}
	}
	if losses == 0 {
		t.Fatal("storm produced no data-loss events across all seeds; the gate is vacuous")
	}
	if drops == 0 {
		t.Fatal("storm produced no dropped rebuilds across all seeds; the gate is vacuous")
	}
}

// TestMonteCarloRejectsSharedHook: a campaign with both a forensic
// aggregate and a caller trace hook cannot be sound — the per-run
// recorder must own the hook.
func TestMonteCarloRejectsSharedHook(t *testing.T) {
	cfg := smallConfig()
	cfg.Hook = func(trace.Event) {}
	_, err := MonteCarlo(cfg, MonteCarloOptions{
		Runs: 2, BaseSeed: 1, Forensics: forensics.NewAggregate(),
	})
	if !errors.Is(err, ErrSharedHook) {
		t.Fatalf("err = %v, want ErrSharedHook", err)
	}
}

// TestEveryDropTraced is drop completeness: with spans on, both engines
// under both storm configs trace exactly one dropped event per dropped
// span (joined by rebuild id), and no dropped event lacks a dropped
// span. The spare engine opens a rebuild record for every block before
// it can drop it, so its dropped events also equal the outcome tally.
// Every trace must pass CheckCausality, whose rebuild-id rules (one
// terminal event per id, nothing after it) these storms exercise.
func TestEveryDropTraced(t *testing.T) {
	dropped := 0
	for _, base := range []struct {
		name string
		cfg  Config
	}{{"obs-storm", obsStormConfig()}, {"forensics-storm", forensicsStormConfig()}} {
		for _, farm := range []bool{true, false} {
			for seed := uint64(1); seed <= 6; seed++ {
				run := base.cfg
				run.UseFARM = farm
				run.Seed = seed
				rec := trace.NewRecorder()
				run.Hook = rec.Record
				spans := obs.NewSpanLog()
				run.Obs = &obs.RunObserver{Spans: spans}
				res, err := runOnce(run)
				if err != nil {
					t.Fatal(err)
				}
				where := func() string {
					return fmt.Sprintf("%s farm=%v seed %d", base.name, farm, seed)
				}
				if err := trace.CheckCausality(rec.Events()); err != nil {
					t.Fatalf("%s: %v", where(), err)
				}
				events := map[int32]int{}
				for _, e := range rec.Events() {
					if e.Kind == trace.KindDropped {
						events[e.Rebuild]++
					}
				}
				spanDrops := 0
				for _, sp := range spans.Spans() {
					if sp.Outcome != obs.OutcomeDropped {
						continue
					}
					spanDrops++
					if n := events[sp.Rebuild]; n != 1 {
						t.Fatalf("%s: dropped span %d has %d dropped events", where(), sp.Rebuild, n)
					}
				}
				if len(events) != spanDrops {
					t.Fatalf("%s: %d rebuilds traced dropped, %d dropped spans", where(), len(events), spanDrops)
				}
				if !farm && spanDrops != res.DroppedRebuilds {
					t.Fatalf("%s: %d dropped events, tally says %d", where(), spanDrops, res.DroppedRebuilds)
				}
				dropped += spanDrops
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no storm dropped a rebuild; the gate is vacuous")
	}
}
