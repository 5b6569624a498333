package placement

import "testing"

// modRacker is the round-robin disk→rack map the topology package uses.
type modRacker int

func (m modRacker) RackOf(id int) int { return id % int(m) }
func (m modRacker) Racks() int        { return int(m) }

// TestPlaceGroupSpreadDistinctRacks pins the spread invariant: across
// many groups, no two blocks of a group ever share a rack, and the
// selection stays deterministic.
func TestPlaceGroupSpreadDistinctRacks(t *testing.T) {
	const numDisks, racks, n = 120, 12, 5
	v := newFakeView(numDisks, 1<<40)
	h := NewHasher(7)
	rk := modRacker(racks)
	var buf [n]int
	for g := uint64(0); g < 200; g++ {
		snapshot := &fakeView{used: append([]int64(nil), v.used...), capacity: v.capacity, dead: map[int]bool{}}
		chosen, err := h.PlaceGroupRacked(v, rk, g, n, 1<<30, buf[:0])
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		again, err := h.PlaceGroupRacked(snapshot, rk, g, n, 1<<30, nil)
		if err != nil {
			t.Fatalf("group %d replay: %v", g, err)
		}
		seen := map[int]bool{}
		for i, id := range chosen {
			if again[i] != id {
				t.Fatalf("group %d: replay chose %v, first pass %v", g, again, chosen)
			}
			r := rk.RackOf(id)
			if seen[r] {
				t.Fatalf("group %d: two blocks in rack %d (%v)", g, r, chosen)
			}
			seen[r] = true
			v.used[id] += 1 << 30
		}
	}
}

// TestPlaceGroupSpreadFailsWithoutRacks pins ErrNoCandidate when fewer
// racks than blocks exist (the constraint is unsatisfiable).
func TestPlaceGroupSpreadFailsWithoutRacks(t *testing.T) {
	v := newFakeView(40, 1<<40)
	h := NewHasher(1)
	if _, err := h.PlaceGroupRacked(v, modRacker(2), 3, 3, 1<<30, nil); err != ErrNoCandidate {
		t.Fatalf("3 blocks over 2 racks: err = %v, want ErrNoCandidate", err)
	}
}

// TestExcluderRackSpread pins the Excluder's rack rule during recovery
// re-placement: a target never lands in the rack of an added disk,
// startTrial resumes the stream past it, disk exclusion composes with
// it, and excluding every rack leaves no candidate.
func TestExcluderRackSpread(t *testing.T) {
	const numDisks, racks = 60, 6
	v := newFakeView(numDisks, 1<<40)
	h := NewHasher(3)
	rk := modRacker(racks)
	var ex Excluder
	ex.Reset(numDisks, rk)
	// Disks 0..2 sit in racks 0..2: adding them excludes those racks.
	for d := 0; d < 3; d++ {
		ex.Add(d)
	}
	excluded := func(id int) bool { return rk.RackOf(id) < 3 }
	for id := 0; id < numDisks; id++ {
		if ex.Excluded(id) != excluded(id) {
			t.Fatalf("disk %d (rack %d): Excluded = %v", id, rk.RackOf(id), ex.Excluded(id))
		}
	}
	id, trial, err := h.RecoveryTarget(v, 9, 1, 1<<30, &ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if excluded(id) {
		t.Fatalf("target %d landed in excluded rack %d", id, rk.RackOf(id))
	}
	// Redirection: resuming past the found trial yields a different disk
	// still outside the excluded racks.
	id2, _, err := h.RecoveryTarget(v, 9, 1, 1<<30, &ex, trial+1)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("redirection returned the failed choice")
	}
	if excluded(id2) {
		t.Fatalf("redirected target %d landed in excluded rack %d", id2, rk.RackOf(id2))
	}
	// Disk exclusion composes with the rack rule: adding the found
	// target excludes it and its rack, and the three racks stay out.
	ex.Add(id)
	id3, _, err := h.RecoveryTarget(v, 9, 1, 1<<30, &ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id || rk.RackOf(id3) == rk.RackOf(id) || excluded(id3) {
		t.Fatalf("target %d ignores the exclusion of disk %d or racks 0-2", id3, id)
	}
	// All racks excluded → no candidate.
	for d := 0; d < racks; d++ {
		ex.Add(d)
	}
	if _, _, err := h.RecoveryTarget(v, 9, 1, 1<<30, &ex, 0); err != ErrNoCandidate {
		t.Fatalf("all racks excluded: err = %v, want ErrNoCandidate", err)
	}
	// Reset clears disks and racks alike.
	ex.Reset(numDisks, rk)
	for id := 0; id < numDisks; id++ {
		if ex.Excluded(id) {
			t.Fatalf("disk %d still excluded after Reset", id)
		}
	}
}

// TestExcluderRackMapAloneMatchesFlat pins that an
// Excluder under a rack map with nothing added walks the same candidate
// stream as a nil one (bit-identical ids), so enabling rack-aware
// placement cannot perturb the choice for a group with no placed block.
func TestExcluderRackMapAloneMatchesFlat(t *testing.T) {
	v := newFakeView(80, 1<<40)
	h := NewHasher(11)
	var ex Excluder
	ex.Reset(80, modRacker(8))
	for g := uint64(0); g < 50; g++ {
		flat, ft, err1 := h.RecoveryTarget(v, g, 0, 1<<30, nil, 0)
		spread, st, err2 := h.RecoveryTarget(v, g, 0, 1<<30, &ex, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("group %d: %v %v", g, err1, err2)
		}
		if flat != spread || ft != st {
			t.Fatalf("group %d: flat (%d,%d) != spread (%d,%d)", g, flat, ft, spread, st)
		}
	}
}
