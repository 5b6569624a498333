package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// options are the parent's settings for measuring one workload.
type options struct {
	seed    uint64
	seconds float64 // fill this long with timed batches; 0 runs exactly reps
	reps    int
	mini    bool
	outDir  string
	expect  map[string]expectation // nil: check invariants instead
}

// minTimedReps is the fewest timed batches a time-filled run makes, so
// a median always has company.
const minTimedReps = 3

// childStride separates the campaign children of a run: child c walks
// the trajectories from seed + c*childStride, so no two run the same one.
const childStride = 1 << 20

// setupProbes is how many extra children a run starts only to time
// set-up, so setup_s is a median of many samples at little cost.
const setupProbes = 40

// childResult is what the parent observes of one child process.
type childResult struct {
	setupS float64
	rssMB  float64
	last   []byte // the child's last stdout line
}

// spawn runs this binary as a child in the given mode with GOMAXPROCS
// equal to the CPU count, and waits for it to exit. A "rep" child times
// at least reps batches, more until about seconds have passed.
func spawn(mode string, w workloadDef, o options, seconds float64, reps int) (childResult, error) {
	var r childResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10), "-outdir", o.outDir,
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-reps", strconv.Itoa(reps)}
	if o.mini {
		args = append(args, "-mini")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	start := time.Now() //farm:wallclock set-up time is host time by definition
	if err := cmd.Start(); err != nil {
		return r, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if r.setupS == 0 && sc.Text() == dispatchLine {
			r.setupS = time.Since(start).Seconds() //farm:wallclock set-up time is host time by definition
			continue
		}
		r.last = append(r.last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return r, fmt.Errorf("%s child for %s: %w", mode, w.name, err)
	}
	if scanErr != nil {
		return r, scanErr
	}
	if r.setupS == 0 {
		return r, fmt.Errorf("%s child for %s never dispatched", mode, w.name)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	return r, nil
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Outputs   *outputs           `json:"outputs,omitempty"`
	Metrics   map[string]sampled `json:"metrics,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// sampled is one metric's samples and their summary.
type sampled struct {
	Unit string `json:"unit"`
	summary
	Samples []float64 `json:"samples"`
}

func (r *workloadResult) fail(trajectories int, err error) {
	r.Failed = min(r.Failed+trajectories, r.Attempted)
	r.Errors = append(r.Errors, err.Error())
}

// runRepChild runs one measuring child: the warm-up batches, then at
// least reps timed batches and more until about seconds have passed.
func runRepChild(w workloadDef, o options, seconds float64, reps int) (childResult, repReport, error) {
	var rep repReport
	c, err := spawn("rep", w, o, seconds, reps)
	if err != nil {
		return c, rep, err
	}
	if err := json.Unmarshal(c.last, &rep); err != nil {
		return c, rep, fmt.Errorf("rep child for %s: %w", w.name, err)
	}
	if len(rep.Batches) <= w.warmup {
		return c, rep, fmt.Errorf("rep child for %s timed no batch", w.name)
	}
	return c, rep, nil
}

// checkCampaign checks a measuring child's batches. A batch that broke
// a forensic-aggregate invariant fails its trajectories. Batch 0 ran
// once per warm-up and once timed: every run of it must agree, and match
// the recorded outputs when they cover this seed; the mismatch, if any,
// is returned for the caller to fail the whole run with. It also returns
// the outputs of batch 0.
func (r *workloadResult) checkCampaign(w workloadDef, o options, rep repReport) (outputs, error) {
	for i, b := range rep.Batches {
		if b.Invariant != "" {
			r.fail(w.batch, fmt.Errorf("batch %d: %s", i, b.Invariant))
		}
	}
	first := make([]outputs, w.warmup+1)
	for i := range first {
		first[i] = rep.Batches[i].Outputs
	}
	return first[0], checkReps(first, o.expectationFor(w))
}

// measureE2E runs the workload as campaigns in its fresh children and
// summarizes the end-to-end metrics: one sample per timed batch, and
// per child for peak RSS and set-up (topped up by setup-only probe
// children). A time-filled run splits its time between the children and
// times at least minTimedReps batches; otherwise the children time at
// least reps batches between them.
func measureE2E(w workloadDef, o options) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		c, err := spawn("setup", w, o, 0, 0)
		if err != nil {
			return res, err
		}
		setups = append(setups, c.setupS)
	}
	reps := o.reps
	if o.seconds > 0 {
		reps = minTimedReps
	}
	perChild := (reps + w.children - 1) / w.children
	budget := o.seconds / float64(w.children)
	var timed []batchSample
	var rss []float64
	var mismatch error
	for i := 0; i < w.children; i++ {
		co := o
		co.seed = o.seed + uint64(i)*childStride
		c, rep, err := runRepChild(w, co, budget, perChild)
		if err != nil {
			return res, err
		}
		setups = append(setups, c.setupS)
		rss = append(rss, c.rssMB)
		res.Attempted += len(rep.Batches) * w.batch
		out, err := res.checkCampaign(w, co, rep)
		mismatch = cmp.Or(mismatch, err)
		if i == 0 {
			res.Outputs = &out
		}
		timed = append(timed, rep.Batches[w.warmup:]...)
	}
	if mismatch == nil && o.expectationFor(w) == nil {
		// Nothing recorded covers this seed: check the invariants on a
		// tapped trajectory instead.
		_, mismatch = spawn("check", w, o, 0, 0)
	}
	if mismatch != nil {
		res.fail(res.Attempted, mismatch)
	}

	n := float64(w.batch)
	res.Metrics = map[string]sampled{}
	add := func(name string, f func(b batchSample) float64) {
		xs := make([]float64, len(timed))
		for i, b := range timed {
			xs[i] = f(b)
		}
		res.Metrics[name] = newSampled(name, xs)
	}
	res.Metrics["setup_s"] = newSampled("setup_s", setups)
	res.Metrics["peak_rss_mb"] = newSampled("peak_rss_mb", rss)
	add("alloc_mb_per_traj", func(b batchSample) float64 { return float64(b.AllocBytes) / 1e6 / n })
	add("allocs_per_traj", func(b batchSample) float64 { return float64(b.Mallocs) / n })
	add("wall_s", func(b batchSample) float64 { return b.WallS })
	add("traj_per_s", func(b batchSample) float64 { return n / b.WallS })
	add("cpu_s_per_traj", func(b batchSample) float64 { return b.CPUS / n })
	return res, nil
}

func newSampled(name string, xs []float64) sampled {
	return sampled{Unit: unitOf(name), summary: summarize(xs), Samples: xs}
}

// unitOf looks a metric's unit up in the benchmark's vocabulary.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, timing, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// expectationFor returns the recorded outputs covering this seed and
// batch, or nil.
func (o options) expectationFor(w workloadDef) *expectation {
	if exp, ok := o.expect[w.name]; ok && exp.Seed == o.seed && exp.Trajectories == w.batch {
		return &exp
	}
	return nil
}

// measureTrace runs one timed batch and then the trace pass, each in its
// own child, and assembles the per-layer ledger.
func measureTrace(w workloadDef, o options) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	_, rep, err := runRepChild(w, o, 0, 1)
	if err != nil {
		return res, err
	}
	res.Attempted += len(rep.Batches) * w.batch
	// The trace pass below checks the invariants on every traced
	// trajectory, so without an expectation there is nothing more here.
	out, err := res.checkCampaign(w, o, rep)
	if err != nil {
		res.fail(res.Attempted, err)
	}
	res.Outputs = &out
	b := rep.Batches[w.warmup]

	c, err := spawn("trace", w, o, 0, 0)
	if err != nil {
		return res, err
	}
	var t traceReport
	if err := json.Unmarshal(c.last, &t); err != nil {
		return res, fmt.Errorf("trace child for %s: %w", w.name, err)
	}
	res.Attempted += t.Trajectories
	res.Failed += t.Failed
	res.Errors = append(res.Errors, t.Errors...)
	res.Layers = t.Layers
	res.Layers["core.mc_efficiency"] = t.MeanRunS * float64(w.batch) / (float64(rep.Workers) * b.WallS)
	res.Layers["go.gc_cpu_frac"] = rep.GCCPUFrac
	return res, nil
}
