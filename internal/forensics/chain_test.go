package forensics

import (
	"fmt"
	"math"
	"testing"
)

// TestDetailsMatchSprintf checks the detail formatter against fmt for
// every detail format a chain link uses, at the edges of each verb:
// negative ids, the int32 extremes and zero for %d; rounding for %.2f
// and %.3f; and %g on integral, tiny and huge factors.
func TestDetailsMatchSprintf(t *testing.T) {
	cases := []struct {
		format string
		args   []any
		build  func(d *details)
	}{
		{"rack=%d", []any{int32(0)}, func(d *details) { d.num("rack", 0) }},
		{"rack=%d", []any{int32(-1)}, func(d *details) { d.num("rack", -1) }},
		{"disk=%d", []any{int32(math.MaxInt32)}, func(d *details) { d.num("disk", math.MaxInt32) }},
		{"disk=%d", []any{int32(math.MinInt32)}, func(d *details) { d.num("disk", math.MinInt32) }},
		{"disk=%d group=%d", []any{int32(-7), 123456}, func(d *details) { d.num("disk", -7).num("group", 123456) }},
		{"kills=%d", []any{int32(6)}, func(d *details) { d.num("kills", 6) }},
		{"group=%d rep=%d", []any{0, -1}, func(d *details) { d.num("group", 0).num("rep", -1) }},
		{"retries=%d resourcings=%d redirections=%d", []any{3, 0, math.MaxInt32},
			func(d *details) { d.num("retries", 3).num("resourcings", 0).num("redirections", math.MaxInt32) }},
		{"mbps=%.2f share=%.3f", []any{16.0, 0.3}, func(d *details) { d.fixed("mbps", 16, 2).fixed("share", 0.3, 3) }},
		{"mbps=%.2f share=%.3f", []any{7.125, 0.0005}, func(d *details) { d.fixed("mbps", 7.125, 2).fixed("share", 0.0005, 3) }},
		{"mbps=%.2f share=%.3f", []any{0.0, 0.9999}, func(d *details) { d.fixed("mbps", 0, 2).fixed("share", 0.9999, 3) }},
		{"mbps=%.2f share=%.3f", []any{1e9 / 3, -0.0125}, func(d *details) { d.fixed("mbps", 1e9/3, 2).fixed("share", -0.0125, 3) }},
		{"factor=%g", []any{8.0}, func(d *details) { d.general("factor", 8) }},
		{"factor=%g", []any{1.5}, func(d *details) { d.general("factor", 1.5) }},
		{"factor=%g", []any{1e-7}, func(d *details) { d.general("factor", 1e-7) }},
		{"factor=%g", []any{0.0001}, func(d *details) { d.general("factor", 0.0001) }},
		{"factor=%g", []any{123456.0}, func(d *details) { d.general("factor", 123456) }},
		{"factor=%g", []any{1234567.0}, func(d *details) { d.general("factor", 1234567) }},
		{"factor=%g", []any{1e21}, func(d *details) { d.general("factor", 1e21) }},
		{"factor=%g", []any{math.MaxFloat64}, func(d *details) { d.general("factor", math.MaxFloat64) }},
		{"factor=%g", []any{1.0 / 3}, func(d *details) { d.general("factor", 1.0/3) }},
		{"unresumed", nil, func(d *details) { d.word("unresumed") }},
	}
	var d details
	for _, tc := range cases {
		want := fmt.Sprintf(tc.format, tc.args...)
		// Each run follows earlier text in the buffer, as in a report.
		d.open()
		tc.build(&d)
		if got := string(d.b[d.start:]); got != want {
			t.Errorf("%s %v: got %q, want %q", tc.format, tc.args, got, want)
		}
	}
}

// TestChainsSortCapSeal: a chain's links are time-sorted with ties in
// append order, each keeping its own detail through the sort, capped at
// maxChain, and every postmortem gets its own run of the shared array,
// whatever order the postmortems were built in.
func TestChainsSortCapSeal(t *testing.T) {
	var c chains
	// Postmortem 0: 20 links, times descending in pairs of equal time.
	for i := 0; i < 20; i++ {
		c.link(float64(10-i/2), "k").num("i", int64(i))
	}
	c.finish(0)
	// Postmortem 2, built before 1: one link without detail. Postmortem
	// 1: no links.
	c.link(3, "solo")
	c.finish(2)
	c.finish(1)
	posts := make([]Postmortem, 3)
	c.seal(posts)

	if got := len(posts[0].Chain); got != maxChain {
		t.Fatalf("chain 0 has %d links, want %d", got, maxChain)
	}
	for j, l := range posts[0].Chain {
		// Sorted ascending: the pair at time 1 (i = 18, 19) first.
		i := 18 - 2*(j/2) + j%2
		if want := fmt.Sprintf("i=%d", i); l.T != float64(10-i/2) || l.Detail != want {
			t.Fatalf("link %d = %+v, want t=%d detail %q", j, l, 10-i/2, want)
		}
	}
	if posts[1].Chain != nil {
		t.Fatalf("chain 1 = %+v, want none", posts[1].Chain)
	}
	if ch := posts[2].Chain; len(ch) != 1 || ch[0].Kind != "solo" || ch[0].Detail != "" || cap(ch) != 1 {
		t.Fatalf("chain 2 = %+v (cap %d), want one bare solo link", ch, cap(ch))
	}
}
