package main

import (
	"fmt"

	"repro/internal/forensics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

// This file is the pure aggregation half of farmstat: parsed artifacts
// in, report tables out. No I/O, so the table shapes are unit-testable.

// traceTable renders per-kind counts, first/last occurrence, and event
// rates from one trace stream.
func traceTable(events []trace.Event) *report.Table {
	s := trace.Summarize(events)
	t := report.NewTable("Trace events by kind",
		"kind", "count", "first (h)", "last (h)", "per 1000 h")
	for _, k := range s.Kinds() {
		rate := 0.0
		if s.LastEventAt > 0 {
			rate = float64(s.Counts[k]) / s.LastEventAt * 1000
		}
		t.AddRow(k.String(),
			fmt.Sprintf("%d", s.Counts[k]),
			fmt.Sprintf("%.1f", s.FirstAt[k]),
			fmt.Sprintf("%.1f", s.LastAt[k]),
			fmt.Sprintf("%.2f", rate))
	}
	t.AddNote("%d events, %d distinct disks, last event at %.1f h",
		len(events), s.DistinctDisks, s.LastEventAt)
	if s.FirstLossAt >= 0 {
		t.AddNote("first data loss at %.1f h (%.2f years)", s.FirstLossAt, s.FirstLossAt/8760)
	} else {
		t.AddNote("no data loss")
	}
	return t
}

// degradedTable renders the user-visible price of rebuild windows from
// one trace stream. Each degraded-reads event summarizes the
// reconstruction-served reads of one closed window of vulnerability
// (N reads, X mean and Y max latency in ms); demand-burst events carry
// the episode duration in X, so windows are split by whether they
// closed inside a burst — the table shows where the latency tail lives.
// Returns nil when the trace has no degraded-read events (an idle fleet
// or a trace from before the foreground-load model).
func degradedTable(events []trace.Event) *report.Table {
	type episode struct{ start, end float64 }
	var wins []trace.Event
	var eps []episode
	throttleSteps := 0
	lastMBps := 0.0
	for _, e := range events {
		switch e.Kind {
		case trace.KindDegradedReads:
			if e.N > 0 {
				wins = append(wins, e)
			}
		case trace.KindDemandBurst:
			eps = append(eps, episode{e.Time, e.Time + e.X})
		case trace.KindThrottle:
			throttleSteps++
			lastMBps = e.X
		}
	}
	if len(wins) == 0 {
		return nil
	}
	inBurst := func(at float64) bool {
		for _, ep := range eps {
			if at >= ep.start && at <= ep.end {
				return true
			}
		}
		return false
	}
	t := report.NewTable("Degraded-read latency by rebuild window (ms)",
		"window class", "windows", "reads", "mean", "p50", "p90", "p99", "max")
	row := func(name string, keep func(trace.Event) bool) {
		var means []float64
		var sum, max float64
		reads := 0
		for _, w := range wins {
			if !keep(w) {
				continue
			}
			reads += int(w.N)
			sum += w.X * float64(w.N)
			means = append(means, w.X)
			if w.Y > max {
				max = w.Y
			}
		}
		if reads == 0 {
			t.AddRow(name, "0", "0", "-", "-", "-", "-", "-")
			return
		}
		t.AddRow(name,
			fmt.Sprintf("%d", len(means)),
			fmt.Sprintf("%d", reads),
			report.F(sum/float64(reads)),
			report.F(metrics.Quantile(means, 0.50)),
			report.F(metrics.Quantile(means, 0.90)),
			report.F(metrics.Quantile(means, 0.99)),
			report.F(max))
	}
	row("all windows", func(trace.Event) bool { return true })
	row("in demand burst", func(w trace.Event) bool { return inBurst(w.Time) })
	row("outside bursts", func(w trace.Event) bool { return !inBurst(w.Time) })
	t.AddNote("windows are classified by close time; quantiles are over per-window mean latency")
	if throttleSteps > 0 {
		t.AddNote("%d throttle steps; final recovery rate %.1f MB/s", throttleSteps, lastMBps)
	}
	return t
}

// phaseRow aggregates one named phase's per-span hours.
func phaseRow(t *report.Table, name string, xs []float64) {
	if len(xs) == 0 {
		t.AddRow(name, "0", "-", "-", "-", "-", "-")
		return
	}
	var w metrics.Welford
	for _, x := range xs {
		w.Add(x)
	}
	t.AddRow(name,
		fmt.Sprintf("%d", len(xs)),
		report.F(w.Mean()),
		report.F(metrics.Quantile(xs, 0.50)),
		report.F(metrics.Quantile(xs, 0.90)),
		report.F(metrics.Quantile(xs, 0.99)),
		report.F(w.Max()))
}

// spanTables renders the phase-breakdown and outcome tables from one
// span log.
func spanTables(spans []*obs.Span) []*report.Table {
	phase := report.NewTable("Rebuild phase breakdown (hours per span)",
		"phase", "spans", "mean", "p50", "p90", "p99", "max")
	var detect, queue, transfer, retry, hedge, window []float64
	counts := map[string]int{}
	attempts, retries, redirections, resourcings, hedges, wins, timeouts := 0, 0, 0, 0, 0, 0, 0
	for _, sp := range spans {
		counts[sp.Outcome]++
		attempts += sp.Attempts
		retries += sp.Retries
		redirections += sp.Redirections
		resourcings += sp.Resourcings
		hedges += sp.Hedges
		if sp.HedgeWon {
			wins++
		}
		if sp.TimedOut {
			timeouts++
		}
		detect = append(detect, sp.DetectWait())
		queue = append(queue, sp.QueueWait)
		transfer = append(transfer, sp.Transfer)
		if sp.RetryWait > 0 {
			retry = append(retry, sp.RetryWait)
		}
		if sp.HedgeOverlap > 0 {
			hedge = append(hedge, sp.HedgeOverlap)
		}
		if sp.Outcome == obs.OutcomeDone {
			window = append(window, sp.Window())
		}
	}
	phaseRow(phase, "detect wait", detect)
	phaseRow(phase, "queue wait", queue)
	phaseRow(phase, "transfer", transfer)
	phaseRow(phase, "retry backoff", retry)
	phaseRow(phase, "hedge overlap", hedge)
	phaseRow(phase, "window (done)", window)

	out := report.NewTable("Rebuild outcomes",
		"outcome", "spans", "share")
	for _, o := range []string{obs.OutcomeDone, obs.OutcomeDropped, obs.OutcomeUnfinished} {
		share := 0.0
		if len(spans) > 0 {
			share = float64(counts[o]) / float64(len(spans))
		}
		out.AddRow(o, fmt.Sprintf("%d", counts[o]), report.Pct(share))
	}
	out.AddNote("%d spans, %d attempts, %d retries, %d redirections, %d re-sourcings",
		len(spans), attempts, retries, redirections, resourcings)
	out.AddNote("%d hedges (%d won), %d timeouts", hedges, wins, timeouts)
	return []*report.Table{phase, out}
}

// postmortemTables renders the loss taxonomy and the fleet-mean blame
// attribution from one postmortem stream (farmtrace -forensics).
func postmortemTables(posts []forensics.Postmortem) []*report.Table {
	byClass := map[string]int{}
	classWindow := map[string]*metrics.Welford{}
	groupsLost := 0
	var blame forensics.Blame
	var window metrics.Welford
	for i := range posts {
		p := &posts[i]
		byClass[p.Class]++
		w := classWindow[p.Class]
		if w == nil {
			w = &metrics.Welford{}
			classWindow[p.Class] = w
		}
		w.Add(p.WindowHours)
		window.Add(p.WindowHours)
		if p.Kind == trace.KindDataLoss {
			groupsLost += p.Groups
		}
		blame = forensics.AddBlame(blame, p.Blame)
	}

	tax := report.NewTable("Loss taxonomy (postmortem verdicts)",
		"class", "events", "share", "mean window (h)", "max window (h)")
	for _, c := range forensics.Classes {
		n := byClass[c]
		if n == 0 {
			continue
		}
		w := classWindow[c]
		tax.AddRow(c,
			fmt.Sprintf("%d", n),
			report.Pct(float64(n)/float64(len(posts))),
			report.F(w.Mean()),
			report.F(w.Max()))
	}
	tax.AddNote("%d postmortems, %d groups lost, mean window %.2f h",
		len(posts), groupsLost, window.Mean())

	bl := report.NewTable("Window-of-vulnerability blame (mean fraction)",
		"component", "fraction")
	if n := len(posts); n > 0 {
		blame = forensics.ScaleBlame(blame, 1/float64(n))
	}
	for _, c := range []struct {
		name string
		frac float64
	}{
		{"detect wait", blame.Detect},
		{"queue wait", blame.Queue},
		{"transfer", blame.Transfer},
		{"retry backoff", blame.Retry},
		{"hedge overlap", blame.Hedge},
		{"stalled (parked/fenced)", blame.Stalled},
		{"fail-slow stretch", blame.FailSlow},
		{"foreground contention", blame.Contention},
		{"network oversubscription", blame.Network},
		{"instant (no window)", blame.Instant},
	} {
		bl.AddRow(c.name, report.Pct(c.frac))
	}
	bl.AddNote("fractions of each event's window, averaged over %d postmortems; columns sum to 1", len(posts))
	return []*report.Table{tax, bl}
}

// seriesTable renders mean/max/final summaries of the sampled system
// state.
func seriesTable(samples []obs.Sample) *report.Table {
	t := report.NewTable("System-state series", "metric", "mean", "max", "final")
	row := func(name string, get func(obs.Sample) float64) {
		var w metrics.Welford
		for _, sm := range samples {
			w.Add(get(sm))
		}
		final := 0.0
		if n := len(samples); n > 0 {
			final = get(samples[n-1])
		}
		t.AddRow(name, report.F(w.Mean()), report.F(w.Max()), report.F(final))
	}
	row("active rebuilds", func(s obs.Sample) float64 { return float64(s.ActiveRebuilds) })
	row("queued transfers", func(s obs.Sample) float64 { return float64(s.QueuedTransfers) })
	row("busy disks", func(s obs.Sample) float64 { return float64(s.BusyDisks) })
	row("recovery MB/s", func(s obs.Sample) float64 { return s.RecoveryMBps })
	row("degraded groups", func(s obs.Sample) float64 { return float64(s.DegradedGroups) })
	row("lost groups", func(s obs.Sample) float64 { return float64(s.LostGroups) })
	row("alive disks", func(s obs.Sample) float64 { return float64(s.AliveDisks) })
	row("slow disks", func(s obs.Sample) float64 { return float64(s.SlowDisks) })
	row("suspect disks", func(s obs.Sample) float64 { return float64(s.SuspectDisks) })
	if n := len(samples); n > 0 {
		t.AddNote("%d samples from %.1f h to %.1f h", n, samples[0].T, samples[n-1].T)
	} else {
		t.AddNote("no samples")
	}
	return t
}
