package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/forensics"
)

// dispatchLine is what a child prints when set-up is done and the
// measured work begins; the parent's clock on it is setup_s.
const dispatchLine = "dispatching"

// batchSample is one batch a measuring child ran: the workload's fixed
// trajectories, timed on their own. Peak RSS comes from the parent's
// rusage of the child instead.
type batchSample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	Outputs    outputs `json:"outputs"`
	// Invariant names a broken forensic-aggregate invariant, if any.
	Invariant string `json:"invariant,omitempty"`
}

// repReport is what a measuring child reports: every batch it ran, the
// workload's warm-up batches first.
type repReport struct {
	Workers   int           `json:"workers"`
	Batches   []batchSample `json:"batches"`
	GCCPUFrac float64       `json:"gc_cpu_frac"`
}

// prepare is the set-up every child does before dispatching: build the
// workload's config and validate it.
func prepare(w workloadDef) (core.Config, error) {
	cfg := w.config()
	return cfg, cfg.Validate()
}

// runChild is the entry point of a child process. A "rep" child runs
// the warm-up batches and then timed batches for about seconds, at
// least reps of them.
func runChild(mode string, w workloadDef, seed uint64, seconds float64, reps int, outDir string, stdout io.Writer) error {
	cfg, err := prepare(w)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, dispatchLine)
	var v any
	switch mode {
	case "setup":
		return nil
	case "rep":
		v, err = runReps(w, cfg, seed, seconds, reps)
	case "check":
		err = checkInvariants(cfg, seed)
		v = struct{}{}
	case "trace":
		v, err = runTracePass(w, cfg, seed, outDir)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(v)
}

// gcCPUSeconds reads the runtime's cumulative GC and user CPU estimates.
func gcCPUSeconds() (gc, user float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuSeconds is the process's user+system CPU time so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// runReps runs the workload as a Monte Carlo campaign: the warm-up
// batches run batch 0, then timed batches 0, 1, 2, ... walk on through
// the trajectories, batch j running seed+j*batch onwards. It times at
// least reps batches, and more while another batch as long as the last
// still ends within seconds of the first.
func runReps(w workloadDef, cfg core.Config, seed uint64, seconds float64, reps int) (repReport, error) {
	r := repReport{Workers: w.workers()}
	for i := 0; i < w.warmup; i++ {
		b, err := runBatch(w, cfg, seed)
		if err != nil {
			return r, err
		}
		r.Batches = append(r.Batches, b)
	}
	gc0, user0 := gcCPUSeconds()
	start := time.Now() //farm:wallclock run length is host time by definition
	last := 0.0
	for j := 0; j < reps || time.Since(start).Seconds()+last <= seconds; j++ { //farm:wallclock run length is host time by definition
		b, err := runBatch(w, cfg, seed+uint64(j*w.batch))
		if err != nil {
			return r, err
		}
		r.Batches = append(r.Batches, b)
		last = b.WallS
	}
	gc1, user1 := gcCPUSeconds()
	if busy := (gc1 - gc0) + (user1 - user0); busy > 0 {
		r.GCCPUFrac = (gc1 - gc0) / busy
	}
	return r, nil
}

// runBatch runs the workload's batch of trajectories seed, seed+1, ...
// and measures it.
func runBatch(w workloadDef, cfg core.Config, seed uint64) (batchSample, error) {
	var b batchSample
	// Collect the previous batch's garbage first, so every batch starts
	// from the same heap and peak RSS is one batch's peak, not two.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now() //farm:wallclock the benchmark measures host time; no simulated state reads it
	if w.monteCarlo {
		opts := core.MonteCarloOptions{Runs: w.batch, Workers: w.workers(), BaseSeed: seed}
		if w.forensics {
			opts.Forensics = forensics.NewAggregate()
		}
		res, err := core.MonteCarlo(cfg, opts)
		if err != nil {
			return b, err
		}
		b.Outputs = outputsOfResult(res)
		if opts.Forensics != nil {
			if err := checkAggregate(opts.Forensics); err != nil {
				b.Invariant = err.Error()
			}
		}
	} else {
		s, err := core.NewSimulator(cfg)
		if err != nil {
			return b, err
		}
		runs := make([]core.RunResult, 0, w.batch)
		for i := 0; i < w.batch; i++ {
			res, err := s.Run(seed + uint64(i))
			if err != nil {
				return b, err
			}
			runs = append(runs, res)
		}
		b.Outputs = outputsOfRuns(runs)
	}
	b.WallS = time.Since(start).Seconds() //farm:wallclock the benchmark measures host time; no simulated state reads it
	b.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	b.AllocBytes = after.TotalAlloc - before.TotalAlloc
	b.Mallocs = after.Mallocs - before.Mallocs
	return b, nil
}
