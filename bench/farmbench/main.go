// Command farmbench is the repository's benchmark. It measures what a
// user of the simulator waits for — Monte Carlo trajectories per host
// second at a stated fleet size and scenario — on four workloads, checks
// the simulated outputs, and with -trace 1 derives a per-layer ledger
// from spans recorded around calls into each layer's public API.
//
// A run measures in one or more fresh child processes of this binary (the
// workload says how many), with GOMAXPROCS and Monte Carlo workers equal
// to the CPU count. Each child warms up and then times batch after batch
// of the workload's trajectories, walking on through them like a
// campaign; the parent times set-up, reads each child's peak RSS and
// summarizes the samples as median, quartiles and n. See bench/README.md.
//
// Usage (from the repository root, through bench/run.sh):
//
//	farmbench [-workload name] [-seed n] [-seconds s | -reps n] [-trace 0|1] [-json file]
//	farmbench -compare parent.json change.json
//	farmbench -record file [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("farmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four in order)")
	seed := fs.Uint64("seed", 1, "workload seed; a run's trajectories are seed, seed+1, ...")
	seconds := fs.Float64("seconds", 0, "repeat each workload's batch for this many seconds (at least 3 timed batches); 0 runs exactly -reps")
	reps := fs.Int("reps", 5, "timed batches per workload when -seconds is 0")
	traceMode := fs.Int("trace", 0, "1: report the per-layer ledger of a traced pass instead of the end-to-end metrics")
	jsonPath := fs.String("json", "", "append this run's results to this file as one JSON line")
	outDir := fs.String("outdir", "bench/out", "directory the traced pass writes <workload>/spans.json under")
	compare := fs.Bool("compare", false, "compare two -json files under BENCHMARK.json's bounds: farmbench -compare parent.json change.json")
	record := fs.String("record", "", "write the observed outputs to this file in expect.json's format")
	mini := fs.Bool("mini", false, "shrink every workload to a smoke-test size; outputs are checked by invariants only")
	child := fs.String("child", "", "internal: run as a child process in this mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *child != "" {
		w, err := lookupWorkload(*name, *mini)
		if err == nil {
			err = runChild(*child, w, *seed, *seconds, *reps, *outDir, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "farmbench child: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: farmbench -compare parent.json change.json")
			return 2
		}
		regressed, err := runCompare(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "farmbench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 && *reps < 1 {
		fmt.Fprintln(stderr, "farmbench: need -reps of at least 1 or positive -seconds")
		return 2
	}

	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name, false)
		if err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 2
		}
		selected = []workloadDef{w}
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, mini: *mini, outDir: *outDir}
	if o.seconds > 0 {
		o.reps = 0
	}
	if !*mini && *record == "" {
		exp, err := parseExpectations(expectJSON)
		if err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 1
		}
		o.expect = exp
	}

	rec := runRecord{Nproc: runtime.NumCPU(), Seed: *seed, Trace: *traceMode == 1}
	for _, w := range selected {
		if *mini {
			w = miniature(w)
		}
		var res workloadResult
		var err error
		if rec.Trace {
			res, err = measureTrace(w, o)
		} else {
			res, err = measureE2E(w, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "farmbench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, w, o, rec.Nproc, res)
		rec.Workloads = append(rec.Workloads, res)
	}

	if *record != "" {
		if err := writeExpectations(*record, selected, *seed, rec.Workloads); err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 1
		}
	}
	if *jsonPath != "" {
		if err := appendRecord(*jsonPath, rec); err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 1
		}
	}
	failed := 0
	for _, r := range rec.Workloads {
		failed += r.Failed
	}
	if *name != "" {
		if err := printResultLine(stdout, rec.Workloads[0], rec.Trace); err != nil {
			fmt.Fprintf(stderr, "farmbench: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printResult writes one workload's human-readable report.
func printResult(w io.Writer, wl workloadDef, o options, nproc int, r workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d trajectories/batch, seed %d, nproc %d\n", wl.name, wl.batch, o.seed, nproc)
	if r.Metrics != nil {
		fmt.Fprintf(w, "%-20s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, list := range [][]metricDef{endToEnd, timing} {
			for _, d := range list {
				m := r.Metrics[d.name]
				fmt.Fprintf(w, "%-20s %-6s %12.6g %12.6g %12.6g %4d\n", d.name, d.unit, m.Median, m.Q1, m.Q3, m.N)
			}
		}
	}
	if r.Layers != nil {
		fmt.Fprintf(w, "%-32s %-6s %14s\n", "per-layer metric", "unit", "value")
		for _, d := range perLayer {
			fmt.Fprintf(w, "%-32s %-6s %14.6g\n", d.name, d.unit, r.Layers[d.name])
		}
	}
	if out := r.Outputs; out != nil {
		fmt.Fprintf(w, "outputs: P(loss)=%g lost_groups=%d disk_failures=%d blocks_rebuilt=%d mean_window_h=%.6g\n",
			out.PLoss, out.LostGroups, out.DiskFailures, out.BlocksRebuilt, out.MeanWindowHours)
	}
	check := "invariants"
	if o.expectationFor(wl) != nil {
		check = "expect.json"
	}
	fmt.Fprintf(w, "check (%s): %d of %d trajectories failed\n", check, r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// printResultLine writes the one-line JSON result: every bounded end-to-end
// metric's median, or with trace every per-layer metric.
func printResultLine(w io.Writer, r workloadResult, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if trace {
		for _, d := range perLayer {
			line.Metrics[d.name] = value{r.Layers[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = value{r.Metrics[d.name].Median, d.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExpectations records each workload's outputs at seed in
// expect.json's format.
func writeExpectations(path string, ws []workloadDef, seed uint64, results []workloadResult) error {
	m := map[string]expectation{}
	for i, w := range ws {
		m[w.name] = expectation{Seed: seed, Trajectories: w.batch, Outputs: *results[i].Outputs}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
