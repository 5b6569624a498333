package recovery

import (
	"testing"

	"repro/internal/rng"
)

// TestDiskListsMatchSlices drives diskLists with random adds and removes
// against plain slices using append and swap-with-last removal: every
// list must hold the same records in the same order, and every array
// must come from, and go back to, the pool.
func TestDiskListsMatchSlices(t *testing.T) {
	const disks, recs, steps = 6, 40, 20000
	var pool listPool
	l := newDiskLists(disks, &pool)
	want := make([][]*rebuild, disks)
	records := make([]rebuild, recs)
	r := rng.New(3)
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Disks that join mid-run start empty and draw from the pool.
			l.grow(disks + 2)
			want = append(want, nil, nil)
		}
		d := r.Intn(len(want))
		rec := &records[r.Intn(recs)]
		if r.Float64() < 0.55 {
			l.add(d, rec)
			want[d] = append(want[d], rec)
		} else {
			found := false
			for i, x := range want[d] {
				if x == rec {
					last := len(want[d]) - 1
					want[d][i] = want[d][last]
					want[d] = want[d][:last]
					found = true
					break
				}
			}
			if got := l.remove(d, rec); got != found {
				t.Fatalf("step %d: remove reported %v, want %v", step, got, found)
			}
		}
		got := l.of(d)
		if len(got) != len(want[d]) {
			t.Fatalf("step %d disk %d: %d records, want %d", step, d, len(got), len(want[d]))
		}
		for i := range got {
			if got[i] != want[d][i] {
				t.Fatalf("step %d disk %d: order differs at %d", step, d, i)
			}
		}
		if len(got) == 0 && cap(got) != 0 {
			t.Fatalf("step %d disk %d: an empty list kept an array of cap %d", step, d, cap(got))
		}
	}
	// Empty every list: all arrays are back in the pool, nil throughout.
	for d := range want {
		for _, rec := range want[d] {
			l.remove(d, rec)
		}
	}
	for k, fl := range pool.free {
		for _, s := range fl {
			if cap(s) != listMinCap<<k || len(s) != 0 {
				t.Fatalf("class %d holds an array of len %d cap %d", k, len(s), cap(s))
			}
			for _, x := range s[:cap(s)] {
				if x != nil {
					t.Fatalf("class %d holds an array with a stale record", k)
				}
			}
		}
	}
}

// TestDiskListsReuseAllocsNothing: once the pool holds arrays of every
// size a list has needed, filling and emptying lists — on any disk —
// allocates nothing.
func TestDiskListsReuseAllocsNothing(t *testing.T) {
	var pool listPool
	l := newDiskLists(8, &pool)
	records := make([]rebuild, 64)
	cycle := func(d int) {
		for i := range records {
			l.add(d, &records[i])
		}
		for i := range records {
			l.remove(d, &records[i])
		}
	}
	cycle(0)
	if n := testing.AllocsPerRun(20, func() {
		for d := 0; d < 8; d++ {
			cycle(d)
		}
	}); n != 0 {
		t.Fatalf("refilling lists from the pool allocated %v times, want 0", n)
	}
}
