package placement

import (
	"math"
	"testing"
	"testing/quick"
)

// fakeView is an in-memory cluster for placement tests.
type fakeView struct {
	used     []int64
	capacity int64
	dead     map[int]bool
}

func newFakeView(n int, capacity int64) *fakeView {
	return &fakeView{used: make([]int64, n), capacity: capacity, dead: map[int]bool{}}
}

func (f *fakeView) NumDisks() int { return len(f.used) }

func (f *fakeView) Eligible(id int, size int64) bool {
	return !f.dead[id] && f.used[id]+size <= f.capacity
}

func (f *fakeView) UsedBytes(id int) int64 { return f.used[id] }

func TestCandidateDeterministic(t *testing.T) {
	h1 := NewHasher(42)
	h2 := NewHasher(42)
	for g := uint64(0); g < 50; g++ {
		for rep := 0; rep < 3; rep++ {
			for trial := 0; trial < 5; trial++ {
				a := h1.Candidate(g, rep, trial, 1000)
				b := h2.Candidate(g, rep, trial, 1000)
				if a != b {
					t.Fatalf("nondeterministic candidate g=%d rep=%d trial=%d", g, rep, trial)
				}
				if a < 0 || a >= 1000 {
					t.Fatalf("candidate %d out of range", a)
				}
			}
		}
	}
}

func TestCandidateSeedsDiffer(t *testing.T) {
	a := NewHasher(1)
	b := NewHasher(2)
	same := 0
	const n = 1000
	for g := uint64(0); g < n; g++ {
		if a.Candidate(g, 0, 0, 10000) == b.Candidate(g, 0, 0, 10000) {
			same++
		}
	}
	// Collisions at rate ~1/10000 expected; 1% is far beyond chance.
	if same > n/100 {
		t.Fatalf("different seeds agree on %d/%d candidates", same, n)
	}
}

func TestCandidateUniform(t *testing.T) {
	h := NewHasher(7)
	const disks, draws = 50, 100000
	counts := make([]int, disks)
	for g := 0; g < draws; g++ {
		counts[h.Candidate(uint64(g), 0, 0, disks)]++
	}
	want := float64(draws) / disks
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("disk %d drew %d, want ~%v", id, c, want)
		}
	}
}

func TestCandidatePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero disks")
		}
	}()
	NewHasher(1).Candidate(1, 0, 0, 0)
}

func TestPlaceGroupDistinctDisks(t *testing.T) {
	h := NewHasher(11)
	v := newFakeView(100, 1000)
	for g := uint64(0); g < 200; g++ {
		ids, err := h.PlaceGroup(v, g, 10, 1)
		if err != nil {
			t.Fatalf("PlaceGroup(%d): %v", g, err)
		}
		if len(ids) != 10 {
			t.Fatalf("got %d disks", len(ids))
		}
		seen := map[int]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("group %d placed two blocks on disk %d", g, id)
			}
			seen[id] = true
			v.used[id]++
		}
	}
}

func TestPlaceGroupBalance(t *testing.T) {
	// Bounded-load placement should keep the per-disk spread tight:
	// after placing 5000 2-block groups on 100 disks (100 blocks/disk
	// average), max-min should be a small fraction of the mean.
	h := NewHasher(13)
	v := newFakeView(100, 1<<40)
	for g := uint64(0); g < 5000; g++ {
		ids, err := h.PlaceGroup(v, g, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			v.used[id]++
		}
	}
	minU, maxU := v.used[0], v.used[0]
	for _, u := range v.used {
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if maxU-minU > 20 { // pure random would give ~60+ spread here
		t.Fatalf("placement imbalance: min=%d max=%d", minU, maxU)
	}
}

func TestPlaceGroupSkipsDeadAndFull(t *testing.T) {
	h := NewHasher(17)
	v := newFakeView(20, 10)
	for id := 0; id < 10; id++ {
		v.dead[id] = true
	}
	for id := 10; id < 15; id++ {
		v.used[id] = 10 // full
	}
	ids, err := h.PlaceGroup(v, 3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id < 15 {
			t.Fatalf("placed block on dead or full disk %d", id)
		}
	}
}

func TestPlaceGroupFailsWhenImpossible(t *testing.T) {
	h := NewHasher(19)
	v := newFakeView(5, 10)
	// Only 3 usable disks but 4 blocks needed.
	v.dead[0] = true
	v.dead[1] = true
	if _, err := h.PlaceGroup(v, 1, 4, 1); err == nil {
		t.Fatal("expected failure placing 4 blocks on 3 usable disks")
	}
}

func TestRecoveryTargetRules(t *testing.T) {
	h := NewHasher(23)
	v := newFakeView(50, 100)
	var exclude Excluder
	exclude.Reset(50, nil)
	id, trial, err := h.RecoveryTarget(v, 9, 1, 10, &exclude, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Eligible(id, 10) {
		t.Fatal("target not eligible")
	}
	// Excluding the found target must yield a different disk.
	exclude.Add(id)
	id2, _, err := h.RecoveryTarget(v, 9, 1, 10, &exclude, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("excluded disk chosen again")
	}
	// Redirection: resuming past the first trial never returns to it
	// unless it reappears later in the stream.
	id3, _, err := h.RecoveryTarget(v, 9, 1, 10, nil, trial+1)
	if err != nil {
		t.Fatal(err)
	}
	if id3 < 0 || id3 >= 50 {
		t.Fatal("redirected target out of range")
	}
}

func TestRecoveryTargetExhaustion(t *testing.T) {
	h := NewHasher(29)
	v := newFakeView(4, 10)
	for id := 0; id < 4; id++ {
		v.dead[id] = true
	}
	if _, _, err := h.RecoveryTarget(v, 1, 0, 1, nil, 0); err == nil {
		t.Fatal("expected ErrNoCandidate on dead cluster")
	}
}

func TestRecoveryTargetDeterministic(t *testing.T) {
	h := NewHasher(31)
	v := newFakeView(100, 100)
	a, ta, _ := h.RecoveryTarget(v, 77, 2, 5, nil, 0)
	b, tb, _ := h.RecoveryTarget(v, 77, 2, 5, nil, 0)
	if a != b || ta != tb {
		t.Fatal("RecoveryTarget not deterministic")
	}
}

// Property: candidates are always in range and PlaceGroup returns distinct
// disks, for arbitrary seeds and cluster sizes.
func TestQuickPlaceGroup(t *testing.T) {
	f := func(seed uint64, nd uint8, n8 uint8) bool {
		numDisks := int(nd%60) + 10
		n := int(n8%4) + 2
		if n > numDisks {
			n = numDisks
		}
		h := NewHasher(seed)
		v := newFakeView(numDisks, 1000)
		ids, err := h.PlaceGroup(v, 5, n, 1)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= numDisks || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
