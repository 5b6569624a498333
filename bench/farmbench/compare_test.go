package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	ramp := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	for _, c := range []struct {
		name    string
		a, b    []float64
		better  string
		paired  bool
		verdict string
	}{
		{"slower beyond bound", steady, shift(steady, 20), "lower", false, "REGRESSION"},
		{"slower within bound", steady, shift(steady, 5), "lower", false, "within bound"},
		{"throughput drop", steady, shift(steady, -20), "higher", false, "REGRESSION"},
		{"throughput rise", steady, shift(steady, 20), "higher", false, "within bound"},
		{"noisy parent", []float64{50, 100, 150, 80, 120}, shift(steady, 30), "lower", false, "unresolved"},
		{"noisy parent, change beats every run", []float64{50, 100, 150, 80, 120}, []float64{40, 41, 42}, "lower", false, "within bound"},
		{"ten winning pairs", ramp, shift(ramp, -20), "lower", true, "gain"},
		{"wins inside the parent's spread", ramp, shift(ramp, -1), "lower", true, "within bound"},
		{"pairs ignored when unpaired", ramp, shift(ramp, -20), "lower", false, "within bound"},
	} {
		if v := judge(c.a, c.b, c.better, 0.1, c.paired); v.Verdict != c.verdict {
			t.Errorf("%s: verdict %q (%+v), want %q", c.name, v.Verdict, v, c.verdict)
		}
	}
	if v := judge(ramp, append(shift(ramp[:8], -20), ramp[8]+5, ramp[9]+5), "lower", 0.1, true); v.Wins != 8 || v.Verdict == "gain" {
		t.Errorf("eight wins of ten: %+v, want 8 wins and no gain", v)
	}

	// Without a bound only ten alternating pairs decide, either way.
	for _, c := range []struct {
		name    string
		b       []float64
		paired  bool
		verdict string
	}{
		{"unbounded, ten winning pairs", shift(ramp, -20), true, "gain"},
		{"unbounded, ten losing pairs", shift(ramp, 20), true, "LOSS"},
		{"unbounded, inside the parent's spread", shift(ramp, 1), true, "unresolved"},
		{"unbounded, unpaired", shift(ramp, 50), false, "unresolved"},
	} {
		if v := judge(ramp, c.b, "lower", 0, c.paired); v.Verdict != c.verdict {
			t.Errorf("%s: verdict %q (%+v), want %q", c.name, v.Verdict, v, c.verdict)
		}
	}
}

// writeRuns writes one -json line per run with the given samples of
// peak_rss_mb and, ten times larger, wall_s.
func writeRuns(t *testing.T, path string, runs ...[]float64) {
	t.Helper()
	var lines []string
	for _, xs := range runs {
		walls := make([]float64, len(xs))
		for i, x := range xs {
			walls[i] = 10 * x
		}
		rec := runRecord{Nproc: 2, Seed: 1, Workloads: []workloadResult{{
			Name: "paper-2pb",
			Metrics: map[string]sampled{
				"peak_rss_mb": newSampled("peak_rss_mb", xs),
				"wall_s":      newSampled("wall_s", walls),
			},
		}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"paper-2pb"}],
		"end_to_end":[{"name":"peak_rss_mb","unit":"MB","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeRuns(t, parent, []float64{2.0, 2.1, 1.9, 2.0, 2.05})
	writeRuns(t, same, []float64{2.02, 2.08, 1.95, 2.0, 2.01})
	writeRuns(t, slow, []float64{2.6, 2.7, 2.5, 2.6, 2.65})

	var out strings.Builder
	regressed, err := runCompare(parent, same, spec, &out)
	if err != nil || regressed || !strings.Contains(out.String(), "within bound") {
		t.Errorf("same code: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "unresolved (no bound)") {
		t.Errorf("timing metric missing or judged under a bound:\n%s", out.String())
	}
	out.Reset()
	regressed, err = runCompare(parent, slow, spec, &out)
	if err != nil || !regressed || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("slower code: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	// Several runs per file compare per-run medians.
	writeRuns(t, parent, []float64{2.0}, []float64{4.0}, []float64{1.0})
	writeRuns(t, same, []float64{2.0}, []float64{2.0}, []float64{2.0})
	out.Reset()
	if _, err := runCompare(parent, same, spec, &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy parent runs: err=%v\n%s", err, out.String())
	}
}
