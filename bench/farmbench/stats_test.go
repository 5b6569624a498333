package main

import "testing"

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4), whose
	// middle cut is the median.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v n=%d", c.xs, s, c.q1, c.m, c.q3, len(c.xs))
		}
	}
	if s := summarize([]float64{1, 2, 3, 4}); s.spread() != 2.5/2.5 {
		t.Errorf("spread of 1..4 = %v, want 1", s.spread())
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("summarize reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "b", Parent: 0, StartNs: 20, EndNs: 50},  // overlaps a by 10
		{Name: "c", Parent: 0, StartNs: 90, EndNs: 120}, // runs past the root
		{Name: "a.child", Parent: 1, StartNs: 12, EndNs: 18},
		{Name: "other root", Parent: -1, StartNs: 200, EndNs: 260},
	}
	fillSelfTimes(spans)
	// root: 100 minus the union [10,50] ∪ [90,100] = 100 - 40 - 10.
	for i, want := range []int64{50, 14, 30, 30, 6, 60} {
		if spans[i].SelfNs != want {
			t.Errorf("%s self = %d ns, want %d", spans[i].Name, spans[i].SelfNs, want)
		}
	}
}
