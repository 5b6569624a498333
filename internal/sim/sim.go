// Package sim is a small discrete-event simulation kernel: a virtual clock
// and a priority queue of timestamped events with deterministic ordering.
//
// It stands in for the PARSEC simulation library the paper used. The FARM
// simulator only needs sequential discrete-event semantics — schedule,
// cancel, advance — so the kernel is deliberately simple, allocation-free in
// steady state, and fully deterministic: events at equal times fire in
// scheduling order (FIFO by sequence number), which keeps every run
// reproducible.
//
// Internally the kernel is built for fleet scale. Events live in a chunked
// free-list arena of intrusive slots — no per-event heap object, no
// interface{} boxing — and are addressed by generation-stamped Handles, so
// Cancel and Pending are O(1) generation comparisons. An event may carry
// one integer argument (ScheduleArg), so a handler bound once as a method
// value serves every disk without a per-event closure. The priority queue
// is a 4-ary implicit heap of 24-byte inline entries ordered by (time, seq);
// cancellation uses lazy deletion (the slot is recycled immediately, the
// stale heap entry is skipped on pop), so a cancel never reshapes the heap.
package sim

import (
	"errors"
	"math"
)

// Time is virtual simulation time. The FARM simulator measures it in hours.
type Time float64

// Forever is a time later than any event the simulator schedules.
const Forever = Time(math.MaxFloat64)

// Handle names a scheduled event. The zero Handle is invalid and names
// nothing: Cancel and Pending on it are harmless no-ops, so callers can use
// the zero value for "no event armed". Handles are only meaningful on the
// Engine that issued them.
type Handle struct {
	idx int32  // arena slot index
	gen uint32 // slot generation at scheduling time; 0 only in the zero Handle
}

// Valid reports whether the handle was issued by Schedule or ScheduleArg
// (as opposed to the zero value). A valid handle may still refer to an
// event that has already fired or been cancelled; use Engine.Pending for
// liveness.
func (h Handle) Valid() bool { return h.gen != 0 }

// slot is one arena cell. A slot alternates between queued (holding a live
// event's callback) and free (linked into the free list); its generation
// increments on every release, invalidating outstanding Handles and any
// stale heap entry that still points at it. A queued slot holds exactly
// one of fn and fnArg; an fnArg event keeps its argument in next, which
// is a free-list link only while the slot is free. Slots are 32 bytes:
// the scheduling label is deliberately not stored (it documents call
// sites; a 16-byte string header per slot would grow the arena by half).
type slot struct {
	at    Time
	fn    func(now Time)
	fnArg func(now Time, arg int)
	gen   uint32
	next  int32 // free-list link while free; the event argument while queued
}

// entry is one implicit-heap element: the (time, seq) ordering key plus the
// generation-stamped slot reference. Entries are plain values — comparisons
// never chase a pointer — and may outlive their event (lazy deletion):
// an entry whose generation no longer matches its slot is dead and is
// discarded when it surfaces at the heap top.
type entry struct {
	at  Time
	seq uint64
	idx int32
	gen uint32
}

// entryLess orders heap entries by (time, seq): simultaneous events fire in
// the order they were scheduled — the property that keeps runs
// deterministic. seq is unique per engine, so the order is total.
func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Arena geometry: slots are allocated in fixed chunks so slot addresses
// never move (the chunks slice may grow, but each chunk's backing array is
// immortal for the engine's lifetime).
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	// heapSeed is the initial heap capacity: most runs keep well under a
	// few hundred concurrent events, and deeper queues double into place.
	heapSeed = 256
)

// Engine owns the virtual clock and the event queue. Not safe for
// concurrent use: a simulation run is single-threaded by design, and
// parallelism lives one level up (many independent runs).
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	pending int

	chunks [][]slot // slot arena; index idx lives at chunks[idx>>chunkBits][idx&chunkMask]
	free   int32    // head of the free-slot list, -1 when empty
	heap   []entry  // 4-ary implicit min-heap ordered by entryLess
}

// New returns an Engine with the clock at zero.
func New() *Engine {
	return &Engine{free: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// Len returns the number of pending events.
func (e *Engine) Len() int { return e.pending }

// ErrPast reports an attempt to schedule an event before the current time.
var ErrPast = errors.New("sim: schedule in the past")

// ErrArg reports a ScheduleArg argument outside the int32 range a slot
// stores.
var ErrArg = errors.New("sim: event argument out of int32 range")

// slotOf returns the arena cell for slot index idx.
//
//farm:hotpath arena slot lookup on every schedule/cancel/step
func (e *Engine) slotOf(idx int32) *slot {
	return &e.chunks[idx>>chunkBits][idx&chunkMask]
}

// alloc pops a free slot, growing the arena by one chunk when the free
// list is empty. Growth is the only allocation in the scheduling path and
// amortizes to zero in steady state: fired and cancelled events recycle
// their slots through the free list.
//
//farm:hotpath slot allocation on every Schedule
func (e *Engine) alloc() int32 {
	if e.free >= 0 {
		idx := e.free
		e.free = e.slotOf(idx).next
		return idx
	}
	c := make([]slot, chunkSize)
	base := int32(len(e.chunks)) << chunkBits
	e.chunks = append(e.chunks, c)
	if e.heap == nil {
		// Pre-size the heap alongside the first chunk so typical queue
		// depths cost one allocation, not a run of append-doublings.
		e.heap = make([]entry, 0, heapSeed)
	}
	// Thread slots [1, chunkSize) onto the free list in ascending order;
	// slot base is handed to the caller. Generations start at 1 so the
	// zero Handle can never match a live slot.
	for i := chunkSize - 1; i >= 1; i-- {
		c[i].gen = 1
		c[i].next = e.free
		e.free = base + int32(i)
	}
	c[0].gen = 1
	return base
}

// release recycles a slot: the generation bump invalidates every Handle
// and heap entry still naming it.
//
//farm:hotpath slot recycling on every fire/cancel
func (e *Engine) release(idx int32, s *slot) {
	s.gen++
	if s.gen == 0 { // 2^32 reuses; keep zero reserved for invalid Handles
		s.gen = 1
	}
	s.fn = nil
	s.fnArg = nil
	s.next = e.free
	e.free = idx
}

// push inserts an entry into the 4-ary heap (sift-up with a hole, so each
// level costs one copy, not a swap).
//
//farm:hotpath heap insert on every Schedule
func (e *Engine) push(en entry) {
	e.heap = append(e.heap, en)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
}

// popMin removes and returns the least entry. The heap must be non-empty.
//
//farm:hotpath heap pop on every fired or lazily-discarded event
func (e *Engine) popMin() entry {
	h := e.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.heap = h
	n := len(h)
	if n > 0 {
		// Sift the displaced last element down from the root, again with
		// a hole: at most one copy per level plus the final store.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			if c+1 < n && entryLess(h[c+1], h[m]) {
				m = c + 1
			}
			if c+2 < n && entryLess(h[c+2], h[m]) {
				m = c + 2
			}
			if c+3 < n && entryLess(h[c+3], h[m]) {
				m = c + 3
			}
			if !entryLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// peek discards dead heap entries (cancelled events) until a live entry
// surfaces, and returns it without removing it. Reports false when the
// queue is empty.
//
//farm:hotpath lazy-deletion purge on every Step/RunUntil head probe
func (e *Engine) peek() (entry, bool) {
	for len(e.heap) > 0 {
		en := e.heap[0]
		if e.slotOf(en.idx).gen == en.gen {
			return en, true
		}
		e.popMin()
	}
	return entry{}, false
}

// Schedule enqueues fn to run at time at. It returns a Handle, which can
// be cancelled. Scheduling at the current time is allowed (the event fires
// after all earlier-scheduled events at that time). Scheduling in the past
// panics: that is always a simulator bug, not a recoverable condition.
//
//farm:hotpath event admission, called once per scheduled event
func (e *Engine) Schedule(at Time, label string, fn func(now Time)) Handle {
	_ = label // diagnostic only; not stored (see slot)
	s, h := e.admit(at)
	s.fn = fn
	return h
}

// ScheduleArg is Schedule for a handler that takes one integer argument,
// typically a disk id: fn(now, arg) runs at time at. Binding fn once (a
// method value) and passing the id here arms a per-disk event without
// allocating a closure. Arg events share the (time, seq) order, Handles,
// Cancel and Pending with Schedule's. arg must fit in an int32.
//
//farm:hotpath event admission for id-carrying events
func (e *Engine) ScheduleArg(at Time, label string, fn func(now Time, arg int), arg int) Handle {
	if int(int32(arg)) != arg {
		panic(ErrArg)
	}
	_ = label // diagnostic only; not stored (see slot)
	s, h := e.admit(at)
	s.fnArg = fn
	s.next = int32(arg)
	return h
}

// admit takes a slot for an event at time at, stamps its (time, seq)
// heap entry and returns the slot for the caller to fill with its
// callback.
//
//farm:hotpath shared admission path of Schedule and ScheduleArg
func (e *Engine) admit(at Time) (*slot, Handle) {
	if at < e.now {
		panic(ErrPast)
	}
	idx := e.alloc()
	s := e.slotOf(idx)
	s.at = at
	seq := e.seq
	e.seq++
	e.push(entry{at: at, seq: seq, idx: idx, gen: s.gen})
	e.pending++
	return s, Handle{idx: idx, gen: s.gen}
}

// After enqueues fn to run delay after the current time.
func (e *Engine) After(delay Time, label string, fn func(now Time)) Handle {
	return e.Schedule(e.now+delay, label, fn)
}

// AfterArg enqueues fn(now, arg) to run delay after the current time
// (see ScheduleArg).
func (e *Engine) AfterArg(delay Time, label string, fn func(now Time, arg int), arg int) Handle {
	return e.ScheduleArg(e.now+delay, label, fn, arg)
}

// Cancel removes a pending event in O(1): the slot is recycled and its
// generation bumped, orphaning the heap entry, which is discarded when it
// reaches the top. Cancelling an already-fired or already-cancelled event
// — or the zero Handle — is a harmless no-op and returns false.
//
//farm:hotpath O(1) generation-bump cancellation
func (e *Engine) Cancel(h Handle) bool {
	if h.gen == 0 {
		return false
	}
	s := e.slotOf(h.idx)
	if s.gen != h.gen {
		return false
	}
	e.release(h.idx, s)
	e.pending--
	return true
}

// Pending reports whether the event named by h is still queued (not fired,
// not cancelled). The zero Handle is never pending.
func (e *Engine) Pending(h Handle) bool {
	return h.gen != 0 && e.slotOf(h.idx).gen == h.gen
}

// EventTime returns the scheduled time of a still-pending event; ok is
// false once the event has fired or been cancelled (diagnostics).
func (e *Engine) EventTime(h Handle) (at Time, ok bool) {
	if !e.Pending(h) {
		return 0, false
	}
	return e.slotOf(h.idx).at, true
}

// Step fires the single earliest pending event and advances the clock to
// its time. It returns false when the queue is empty.
//
//farm:hotpath the discrete-event engine step, fired once per simulated event
func (e *Engine) Step() bool {
	en, ok := e.peek()
	if !ok {
		return false
	}
	e.popMin()
	s := e.slotOf(en.idx)
	e.now = en.at
	e.fired++
	e.pending--
	fn, fnArg, arg := s.fn, s.fnArg, int(s.next)
	// Recycle before firing: the callback may schedule into (and is
	// allowed to reuse) this very slot — the generation bump keeps any
	// stale Handle to the fired event inert.
	e.release(en.idx, s)
	if fnArg != nil {
		fnArg(e.now, arg)
	} else {
		fn(e.now)
	}
	return true
}

// RunUntil fires events in order until the queue is empty or the next
// event is after deadline. The clock finishes at min(deadline, last event
// time)… precisely: it is left at deadline if the queue drained past it,
// so that callers can read Now() == deadline for an uneventful tail.
func (e *Engine) RunUntil(deadline Time) {
	for {
		en, ok := e.peek()
		if !ok || en.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run drains the queue completely.
func (e *Engine) Run() {
	for e.Step() {
	}
}
