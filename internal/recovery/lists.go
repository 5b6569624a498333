package recovery

import "math/bits"

// diskLists indexes rebuild records by disk id, one list per disk: the
// engine keeps three of them (rebuilds by source, by target, and hedges
// by either endpoint). A list is an ordinary slice, so its order is the
// order of adds, with remove moving the last element into the hole —
// failure fan-out walks the lists in that order, so it is part of every
// transcript. The backing arrays come from the engine's listPool: a list
// that outgrows its array, or empties, hands the array back, and a disk
// draws a fresh one at its first add. Disks that join mid-run therefore
// reuse the arrays of disks that died, and a run allocates only up to
// its high-water mark of concurrently indexed rebuilds.
type diskLists struct {
	lists [][]*rebuild
	pool  *listPool
}

// newDiskLists returns n empty lists drawing from pool.
func newDiskLists(n int, pool *listPool) diskLists {
	return diskLists{lists: make([][]*rebuild, n), pool: pool}
}

// of returns disk d's list. The caller must not keep it across an add or
// remove on the same disk.
func (l *diskLists) of(d int) []*rebuild { return l.lists[d] }

// grow extends the table to n disks, each new list empty.
func (l *diskLists) grow(n int) { l.lists = growTo(l.lists, n) }

// add appends r to disk d's list, moving the list to an array of twice
// the capacity when it is full.
//
//farm:hotpath per-disk index insert, gated by TestRebuildLifecycleZeroAlloc
func (l *diskLists) add(d int, r *rebuild) {
	s := l.lists[d]
	if len(s) == cap(s) {
		t := l.pool.get(2 * cap(s))
		t = append(t, s...)
		if cap(s) > 0 {
			l.pool.put(s)
		}
		s = t
	}
	s = append(s, r)
	l.lists[d] = s
}

// remove deletes r from disk d's list by swapping the last element into
// its place, and reports whether r was there. A list that empties hands
// its array back to the pool.
//
//farm:hotpath per-disk index removal, gated by TestRebuildLifecycleZeroAlloc
func (l *diskLists) remove(d int, r *rebuild) bool {
	s := l.lists[d]
	for i, x := range s {
		if x != r {
			continue
		}
		last := len(s) - 1
		s[i] = s[last]
		s[last] = nil
		if last == 0 {
			l.pool.put(s)
			s = nil
		} else {
			s = s[:last]
		}
		l.lists[d] = s
		return true
	}
	return false
}

// listMinCap is the capacity of a list's first array; capacities double
// from there, so every array in the pool holds a power of two.
const listMinCap = 2

// listCarve is how many pointers the pool allocates at once when a
// capacity class runs dry: small arrays are carved many to one
// allocation, arrays this large or larger one at a time.
const listCarve = 256

// listPool recycles the backing arrays of diskLists, with one free list
// per power-of-two capacity. Its free lists only ever grow, to the
// run's high-water mark of spare arrays per class.
type listPool struct {
	free [][][]*rebuild
}

// listClass returns the free-list index of capacity c (a power of two of at
// least listMinCap).
func listClass(c int) int { return bits.Len(uint(c)) - bits.Len(listMinCap) }

// get returns an empty array of capacity max(c, listMinCap).
//
//farm:hotpath list growth and first use, gated by TestRebuildLifecycleZeroAlloc
func (p *listPool) get(c int) []*rebuild {
	c = max(c, listMinCap)
	k := listClass(c)
	if k >= len(p.free) {
		p.free = growTo(p.free, k+1)
	}
	fl := p.free[k]
	if len(fl) == 0 {
		p.carve(k, c)
		fl = p.free[k]
	}
	s := fl[len(fl)-1]
	fl[len(fl)-1] = nil
	p.free[k] = fl[:len(fl)-1]
	return s
}

// carve refills class k, of capacity c, from one new allocation.
func (p *listPool) carve(k, c int) {
	n := max(listCarve/c, 1)
	backing := make([]*rebuild, n*c)
	for i := 0; i < n; i++ {
		p.free[k] = append(p.free[k], backing[i*c:i*c:(i+1)*c])
	}
}

// put returns array s to the pool. Arrays are nil past their length
// (remove clears the slot it vacates), so clearing s[:len] leaves the
// whole array nil for its next list.
//
//farm:hotpath list growth and emptying, gated by TestRebuildLifecycleZeroAlloc
func (p *listPool) put(s []*rebuild) {
	clear(s)
	k := listClass(cap(s))
	p.free[k] = append(p.free[k], s[:0])
}
