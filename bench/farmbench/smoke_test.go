package main

import (
	"os"
	"testing"
)

// childEnv makes the test binary act as farmbench when the harness
// starts it as a child process.
const childEnv = "FARMBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload at miniature size through
// the real parent/child path: a timed repetition, then the trace pass.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv(childEnv, "1")
	o := options{seed: 1, reps: 1, mini: true, outDir: t.TempDir()}
	for _, full := range workloads {
		w := miniature(full)
		e2e, err := measureE2E(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if e2e.Failed != 0 || e2e.Attempted != w.children*(w.warmup+1)*w.batch {
			t.Errorf("%s: %d of %d trajectories failed: %v", w.name, e2e.Failed, e2e.Attempted, e2e.Errors)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), timing...) {
			if m, ok := e2e.Metrics[d.name]; !ok || m.Median <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v", w.name, d.name, m)
			}
		}
		if n := e2e.Metrics["setup_s"].N; n != setupProbes+w.children {
			t.Errorf("%s: %d set-up samples, want %d", w.name, n, setupProbes+w.children)
		}
		if n := e2e.Metrics["peak_rss_mb"].N; n != w.children {
			t.Errorf("%s: %d peak RSS samples, want one per child, %d", w.name, n, w.children)
		}

		tr, err := measureTrace(w, o)
		if err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s trace: %v", w.name, tr.Errors)
		}
		for _, d := range perLayer {
			if _, ok := tr.Layers[d.name]; !ok {
				t.Errorf("%s trace: no %s", w.name, d.name)
			}
		}
		if tr.Layers["core.run_s.p50"] <= 0 || tr.Layers["trace.events"] <= 0 || tr.Layers["core.mc_efficiency"] <= 0 {
			t.Errorf("%s trace: implausible ledger %v", w.name, tr.Layers)
		}
		if _, err := os.Stat(o.outDir + "/" + w.name + "/spans.json"); err != nil {
			t.Errorf("%s trace: %v", w.name, err)
		}
	}
}

// TestCampaignWalksOn checks that a child's warm-up repeats batch 0 and
// its timed batches walk on through the trajectories.
func TestCampaignWalksOn(t *testing.T) {
	w := miniature(workloads[3])
	cfg, err := prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runReps(w, cfg, 5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != w.warmup+2 {
		t.Fatalf("%d batches, want %d warm-up and 2 timed", len(rep.Batches), w.warmup)
	}
	next, err := runBatch(w, cfg, 5+uint64(w.batch))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Batches[w.warmup].Outputs.diff(rep.Batches[0].Outputs); err != nil {
		t.Errorf("timed batch 0 differs from the warm-up: %v", err)
	}
	if err := rep.Batches[w.warmup+1].Outputs.diff(next.Outputs); err != nil {
		t.Errorf("timed batch 1 is not trajectories seed+batch onwards: %v", err)
	}
}

// TestFailedCheckFailsEveryTrajectory feeds the harness an expectation
// the outputs cannot meet.
func TestFailedCheckFailsEveryTrajectory(t *testing.T) {
	t.Setenv(childEnv, "1")
	w := miniature(workloads[3])
	wrong := expectation{Seed: 1, Trajectories: w.batch, Outputs: outputs{DiskFailures: 1}}
	o := options{seed: 1, reps: 2, mini: true, outDir: t.TempDir(), expect: map[string]expectation{w.name: wrong}}
	res, err := measureE2E(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != w.children*(w.warmup+1)*w.batch || res.Failed != res.Attempted || len(res.Errors) == 0 {
		t.Errorf("failed %d of %d (%v), want every trajectory failed", res.Failed, res.Attempted, res.Errors)
	}
}
