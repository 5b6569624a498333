package main

import (
	"sort"
)

// summary is a sample's median and quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does with its default exclusive method,
// so the numbers printed here are the numbers anyone recomputes from the
// samples with it. Q2 of that method is the ordinary median. A single sample
// is its own median and quartiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// median is the middle of a sample (mean of the middle two for even n).
func median(xs []float64) float64 { return summarize(xs).Median }

// span is one timed interval of the -trace pass. Spans of one trajectory
// share Traj; Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Traj    uint64 `json:"traj"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls is the operation count a micro span timed (0 otherwise).
	Calls int `json:"calls,omitempty"`
	// SelfNs is the duration minus the time child spans cover.
	SelfNs int64 `json:"self_ns"`
}

// fillSelfTimes sets every span's SelfNs: its duration minus the union of
// its children's intervals, clipped to its own interval, so overlapping
// or out-of-range children are never subtracted twice.
func fillSelfTimes(spans []span) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), p.StartNs
		for _, k := range kids {
			start, end := max(spans[k].StartNs, reach), min(spans[k].EndNs, p.EndNs)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		p.SelfNs = p.EndNs - p.StartNs - covered
	}
}
