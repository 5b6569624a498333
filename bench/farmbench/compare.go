package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runRecord is one invocation's results, appended as one JSON line to
// the file named by -json. Alternating invocations of a parent and a
// change build up two such files for -compare.
type runRecord struct {
	Nproc     int              `json:"nproc"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// boundDef is an end-to-end metric as BENCHMARK.json declares it.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// samplesOf returns a metric's samples for one workload: the per-run
// medians when the file holds several runs, else the one run's
// per-repetition samples.
func samplesOf(recs []runRecord, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		for _, w := range r.Workloads {
			if m, ok := w.Metrics[metric]; ok && w.Name == workload {
				if len(recs) == 1 {
					return m.Samples
				}
				xs = append(xs, m.Median)
			}
		}
	}
	return xs
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	A, B summary
	// Worse is the change's median worsening as a share of the parent's
	// median; negative means it got better.
	Worse       float64
	Wins, Pairs int
	Verdict     string
}

// judge compares parent samples a with change samples b. The change
// regresses when its median is worse by more than bound. Where the
// parent's own quartile spread is wider than bound the metric is
// unresolved, unless every change sample beats every parent sample. With
// at least ten alternating pairs, a gain needs nine wins in ten and a
// median difference larger than the parent's quartile distance. A bound
// of 0 means the metric has none: only the pairs rule decides it, in
// either direction, and anything short of it is unresolved.
func judge(a, b []float64, better string, bound float64, paired bool) verdict {
	v := verdict{A: summarize(a), B: summarize(b)}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	beats := func(x, y float64) bool { return sign*(x-y) < 0 }
	v.Worse = sign * (v.B.Median - v.A.Median) / v.A.Median
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	if paired && len(a) == len(b) && len(a) >= 10 {
		v.Pairs = len(a)
		for i := range a {
			if beats(b[i], a[i]) {
				v.Wins++
			}
		}
	}
	distinct := math.Abs(v.B.Median-v.A.Median) > v.A.Q3-v.A.Q1
	if bound == 0 {
		switch {
		case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && distinct:
			v.Verdict = "gain"
		case v.Pairs > 0 && 10*(v.Pairs-v.Wins) >= 9*v.Pairs && distinct:
			v.Verdict = "LOSS"
		default:
			v.Verdict = "unresolved"
		}
		return v
	}
	switch {
	case v.A.spread() > bound && !allBetter:
		v.Verdict = "unresolved"
	case v.Worse > bound:
		v.Verdict = "REGRESSION"
	case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && distinct:
		v.Verdict = "gain"
	default:
		v.Verdict = "within bound"
	}
	return v
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and the verdict under the metric's bound from
// BENCHMARK.json, then the same for the unbounded timing metrics. It
// reports whether any bounded metric regressed.
func runCompare(parentPath, changePath, specPath string, stdout io.Writer) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	paired := len(a) >= 10 && len(a) == len(b)
	fmt.Fprintf(stdout, "parent %s (%d runs) vs change %s (%d runs)\n", parentPath, len(a), changePath, len(b))
	regressed := false
	for _, w := range spec.Workloads {
		fmt.Fprintf(stdout, "\n== %s\n%-18s %-6s %-34s %-34s %8s  %s\n", w.Name, "metric", "unit", "parent median [q1, q3] n", "change median [q1, q3] n", "worse", "verdict")
		metrics := spec.EndToEnd
		for _, d := range timing {
			metrics = append(metrics, boundDef{Name: d.name, Unit: d.unit, Better: d.better})
		}
		for _, m := range metrics {
			as, bs := samplesOf(a, w.Name, m.Name), samplesOf(b, w.Name, m.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			v := judge(as, bs, m.Better, m.Bound, paired)
			regressed = regressed || v.Verdict == "REGRESSION"
			wins := ""
			if v.Pairs > 0 {
				wins = fmt.Sprintf(" (%d/%d wins)", v.Wins, v.Pairs)
			}
			bound := "no bound"
			if m.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(stdout, "%-18s %-6s %-34s %-34s %+7.1f%%  %s (%s)%s\n",
				m.Name, m.Unit, fmtSummary(v.A), fmtSummary(v.B), 100*v.Worse, v.Verdict, bound, wins)
		}
	}
	return regressed, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
