// Package recovery implements the paper's two recovery engines and the
// disk-bandwidth scheduler beneath them.
//
//   - FARM: after a failure is detected, every affected redundancy group
//     rebuilds its lost block in parallel onto a *different* disk chosen
//     from the group's placement candidate list. The window of
//     vulnerability shrinks from "rebuild an entire disk" to "rebuild one
//     group" (§2.3).
//   - SpareDisk: the traditional RAID baseline — every lost block of the
//     failed drive is rebuilt onto a single dedicated replacement drive, so
//     reconstruction requests queue up at the one recovery target (§3.2).
//
// Both engines schedule rebuild work through a Scheduler that grants each
// disk one recovery transfer at a time (the paper caps recovery at 20% of a
// drive's bandwidth; a rebuild consumes that allotment on its source and on
// its target).
package recovery

import (
	"fmt"

	"repro/internal/sim"
)

// taskState tracks a rebuild through its lifecycle.
type taskState uint8

const (
	// taskIdle is a task built (or re-pointed) but not yet submitted —
	// for instance a retry waiting out its backoff.
	taskIdle taskState = iota
	taskPending
	taskRunning
	taskDone
	taskCancelled
)

// Task is one block rebuild: read from Source, write to Target, taking
// Duration of virtual time once both disks are free. A Task may be
// submitted many times (the engines reuse one record per block rebuild);
// each Submit starts a new attempt.
type Task struct {
	Group  int
	Rep    int
	Source int
	Target int
	// Duration is the transfer time once started.
	Duration sim.Time
	// SubmittedAt records when the current attempt was requested, for
	// window-of-vulnerability statistics.
	SubmittedAt sim.Time
	// StartedAt records when the transfer actually began (queue wait is
	// StartedAt - SubmittedAt); meaningful once the task is running.
	StartedAt sim.Time

	state taskState
	// gen is the attempt generation, bumped by every Submit. Queue
	// entries carry the generation they were filed under, so an entry
	// left behind by a cancelled attempt stays stale after the task is
	// resubmitted.
	gen      uint32
	event    sim.Handle
	queuedOn int // disk queue currently holding the task, -1 if none
	// fire is the "rebuild-done" callback, bound once at the task's
	// first Submit (a Task belongs to the Scheduler that first ran it),
	// so starting a transfer allocates nothing.
	fire func(now sim.Time)
	// shaped is the effective transfer time after the Shape hook
	// (network contention) stretched Duration; equal to Duration when no
	// hook is installed. Set at transfer start.
	shaped sim.Time
	// rb is the block rebuild this attempt belongs to (nil for tasks
	// submitted outside an engine); the engines' OnDone and OnStart hooks
	// route through it.
	rb *rebuild
	// groupNext threads the engine's per-group list of in-flight rebuild
	// targets (base.groupTargets).
	groupNext *Task
}

// State helpers used by engines and tests.
func (t *Task) Done() bool      { return t.state == taskDone }
func (t *Task) Cancelled() bool { return t.state == taskCancelled }
func (t *Task) Running() bool   { return t.state == taskRunning }

// queued is one disk-queue entry: the task and the attempt generation it
// was filed under. An entry whose generation no longer matches its task
// is stale (the attempt was cancelled, and maybe resubmitted elsewhere)
// and is skipped.
type queued struct {
	t   *Task
	gen uint32
}

// fifo is one disk's wait queue. Entries before head are consumed; the
// queue rewinds to the start of its backing array whenever it empties,
// and enqueue slides the unconsumed entries to the front when the array
// is full, so a steady stream of appends reuses the same storage even
// on a queue that never empties.
type fifo struct {
	items []queued
	head  int
}

// Scheduler serializes rebuild transfers per disk: each disk performs at
// most one recovery transfer at a time. Tasks whose source or target is
// busy wait in that disk's FIFO queue.
type Scheduler struct {
	eng     *sim.Engine
	busy    []bool
	waiting []fifo
	// Started counts transfers begun; Completed counts finished.
	Started   int
	Completed int
	// BusyHours accumulates disk-hours spent on recovery transfers (two
	// disks per transfer) — the degraded-mode interference the paper's
	// declustering argument is about.
	BusyHours float64
	// OnDone, when set, fires as each transfer completes, after both
	// disks are released and before their queues drain. The engines
	// install it once and route through Task.rb.
	OnDone func(now sim.Time, t *Task)
	// OnStart, when set, fires as each transfer begins — the engines'
	// span layer hooks it to mark transfer starts. Strictly read-only
	// with respect to scheduling decisions.
	OnStart func(now sim.Time, t *Task)
	// Shape, when set, maps a starting transfer's nominal Duration to
	// its effective duration (network-contention stretch). Release is
	// its paired teardown, fired exactly once per shaped transfer —
	// at completion or at cancellation of a running task. Tasks that
	// never started are never shaped and never released.
	Shape   func(now sim.Time, t *Task) sim.Time
	Release func(t *Task)
}

// NewScheduler returns a scheduler for numDisks disk slots.
func NewScheduler(eng *sim.Engine, numDisks int) *Scheduler {
	return &Scheduler{
		eng:     eng,
		busy:    make([]bool, numDisks),
		waiting: make([]fifo, numDisks),
	}
}

// Grow extends the per-disk tables after disks are added to the cluster.
func (s *Scheduler) Grow(numDisks int) {
	s.busy = growTo(s.busy, numDisks)
	s.waiting = growTo(s.waiting, numDisks)
}

// growTo extends a per-disk table s to n zero entries, at least doubling
// its capacity when it must reallocate: a fleet that grows batch by
// batch (replacements, spares) then copies its tables O(log n) times,
// not at append's ~1.25× steps for large slices.
func growTo[T any](s []T, n int) []T {
	old := len(s)
	if n <= old {
		return s
	}
	if n > cap(s) {
		t := make([]T, old, max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	s = s[:n]
	clear(s[old:])
	return s
}

// Busy reports whether disk id is mid-transfer.
func (s *Scheduler) Busy(id int) bool { return s.busy[id] }

// QueueLen returns the number of entries waiting on disk id, stale ones
// included.
func (s *Scheduler) QueueLen(id int) int {
	q := &s.waiting[id]
	return len(q.items) - q.head
}

// BusyDisks counts disks currently mid-transfer (two per running
// transfer). Read-only; used by the state sampler.
func (s *Scheduler) BusyDisks() int {
	n := 0
	for _, b := range s.busy {
		if b {
			n++
		}
	}
	return n
}

// QueuedTransfers counts live tasks parked in the per-disk FIFO queues
// (stale entries are lazily removed, so they are skipped here).
// Read-only; used by the state sampler.
func (s *Scheduler) QueuedTransfers() int {
	n := 0
	for d := range s.waiting {
		q := &s.waiting[d]
		for _, e := range q.items[q.head:] {
			if e.live(d) {
				n++
			}
		}
	}
	return n
}

// live reports whether a queue entry on disk d still names a pending
// attempt filed there.
func (e queued) live(d int) bool {
	return e.gen == e.t.gen && e.t.state == taskPending && e.t.queuedOn == d
}

// Submit starts a new attempt of t: it runs immediately if both disks
// are idle and queues otherwise. OnDone fires at completion. A task may
// be resubmitted once its previous attempt is done or cancelled, but
// only to the Scheduler that first ran it.
func (s *Scheduler) Submit(t *Task) {
	if t.Source == t.Target {
		panic(fmt.Sprintf("recovery: task %d/%d source == target %d", t.Group, t.Rep, t.Source))
	}
	if t.fire == nil {
		t.fire = func(now sim.Time) { s.finish(now, t) }
	}
	t.gen++
	t.state = taskPending
	t.queuedOn = -1
	t.SubmittedAt = s.eng.Now()
	s.dispatch(t)
}

// dispatch starts t if possible, otherwise parks it on a busy disk's queue.
//
//farm:hotpath every submission and every queue hand-off
func (s *Scheduler) dispatch(t *Task) {
	switch {
	case !s.busy[t.Source] && !s.busy[t.Target]:
		s.start(t)
	case s.busy[t.Target]:
		s.enqueue(t, t.Target)
	default:
		s.enqueue(t, t.Source)
	}
}

// enqueue files t's current attempt on disk d's queue.
//
//farm:hotpath queue append, reusing the rewound backing array
func (s *Scheduler) enqueue(t *Task, d int) {
	t.queuedOn = d
	q := &s.waiting[d]
	if len(q.items) == cap(q.items) && q.head > 0 {
		// A queue that never empties is never rewound by drain: slide
		// the unconsumed entries (stale ones too) to the front instead
		// of growing the array behind a consumed prefix.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, queued{t: t, gen: t.gen})
}

// start begins t's transfer on both disks.
//
//farm:hotpath every transfer start
func (s *Scheduler) start(t *Task) {
	s.busy[t.Source] = true
	s.busy[t.Target] = true
	t.state = taskRunning
	t.queuedOn = -1
	t.StartedAt = s.eng.Now()
	s.Started++
	if s.OnStart != nil {
		s.OnStart(t.StartedAt, t)
	}
	dur := t.Duration
	if s.Shape != nil {
		dur = s.Shape(t.StartedAt, t)
	}
	t.shaped = dur
	t.event = s.eng.After(dur, "rebuild-done", t.fire)
}

// finish completes t's running transfer (its "rebuild-done" event). The
// endpoints are read before OnDone: the engine may re-point and
// resubmit the same task from inside the hook.
func (s *Scheduler) finish(now sim.Time, t *Task) {
	src, tgt := t.Source, t.Target
	t.event = sim.Handle{}
	t.state = taskDone
	s.busy[src] = false
	s.busy[tgt] = false
	s.Completed++
	if s.Release != nil {
		s.Release(t)
	}
	s.BusyHours += 2 * float64(t.shaped)
	if s.OnDone != nil {
		s.OnDone(now, t)
	}
	s.drain(src)
	s.drain(tgt)
}

// drain starts or re-files tasks waiting on disk d after it frees up.
//
//farm:hotpath queue hand-off after every transfer end
func (s *Scheduler) drain(d int) {
	q := &s.waiting[d]
	for q.head < len(q.items) && !s.busy[d] {
		e := q.items[q.head]
		q.items[q.head] = queued{}
		q.head++
		if q.head == len(q.items) {
			q.items, q.head = q.items[:0], 0
		}
		if !e.live(d) {
			continue // cancelled, resubmitted or moved
		}
		e.t.queuedOn = -1
		s.dispatch(e.t)
	}
}

// Cancel aborts a task's current attempt. A running transfer releases
// both disks (and wakes their queues); a waiting task's queue entry goes
// stale and is skipped lazily. Returns false if the attempt already
// completed. A task that was never submitted stays idle.
func (s *Scheduler) Cancel(t *Task) bool {
	switch t.state {
	case taskDone, taskCancelled:
		return t.state == taskCancelled
	case taskIdle:
		return true
	case taskRunning:
		if t.event.Valid() {
			s.eng.Cancel(t.event)
			t.event = sim.Handle{}
		}
		t.state = taskCancelled
		s.busy[t.Source] = false
		s.busy[t.Target] = false
		if s.Release != nil {
			s.Release(t)
		}
		s.drain(t.Source)
		s.drain(t.Target)
		return true
	default: // pending
		t.state = taskCancelled
		return true
	}
}
