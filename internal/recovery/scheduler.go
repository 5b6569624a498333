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
	event sim.Handle
	// queuedOn is the disk whose wait queue holds the task while it is
	// pending; prev and next link it into that queue.
	queuedOn   int
	prev, next *Task
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

// diskQueue is one disk's wait queue: a FIFO threaded through the
// pending tasks themselves (Task.prev/next), so queueing allocates
// nothing and Cancel unlinks a task in O(1).
type diskQueue struct {
	head, tail *Task
}

// Scheduler serializes rebuild transfers per disk: each disk performs at
// most one recovery transfer at a time. Tasks whose source or target is
// busy wait in that disk's FIFO queue.
type Scheduler struct {
	eng *sim.Engine
	// running holds, per disk, the transfer the disk is serving (nil
	// when idle): a transfer occupies both its endpoints, and its
	// "rebuild-done" event carries its source to find it again.
	running []*Task
	waiting []diskQueue
	// queued counts the tasks in all wait queues.
	queued int
	// done is the "rebuild-done" handler, bound once.
	done func(now sim.Time, src int)
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
	s := &Scheduler{
		eng:     eng,
		running: make([]*Task, numDisks),
		waiting: make([]diskQueue, numDisks),
	}
	s.done = s.finishOn
	return s
}

// Grow extends the per-disk tables after disks are added to the cluster.
func (s *Scheduler) Grow(numDisks int) {
	s.running = growTo(s.running, numDisks)
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
func (s *Scheduler) Busy(id int) bool { return s.running[id] != nil }

// QueueLen returns the number of tasks waiting on disk id.
func (s *Scheduler) QueueLen(id int) int {
	n := 0
	for t := s.waiting[id].head; t != nil; t = t.next {
		n++
	}
	return n
}

// BusyDisks counts disks currently mid-transfer (two per running
// transfer). Read-only; used by the state sampler.
func (s *Scheduler) BusyDisks() int {
	n := 0
	for _, t := range s.running {
		if t != nil {
			n++
		}
	}
	return n
}

// QueuedTransfers counts tasks parked in the per-disk FIFO queues.
// Read-only; used by the state sampler.
func (s *Scheduler) QueuedTransfers() int { return s.queued }

// Submit starts a new attempt of t: it runs immediately if both disks
// are idle and queues otherwise. OnDone fires at completion. A task may
// be resubmitted once its previous attempt is done or cancelled; Submit
// panics on a task still waiting in a queue.
func (s *Scheduler) Submit(t *Task) {
	if t.Source == t.Target {
		panic(fmt.Sprintf("recovery: task %d/%d source == target %d", t.Group, t.Rep, t.Source))
	}
	if t.state == taskPending {
		panic(fmt.Sprintf("recovery: task %d/%d submitted while queued on disk %d", t.Group, t.Rep, t.queuedOn))
	}
	t.state = taskPending
	t.SubmittedAt = s.eng.Now()
	s.dispatch(t)
}

// dispatch starts t if possible, otherwise parks it on a busy disk's queue.
//
//farm:hotpath every submission and every queue hand-off
func (s *Scheduler) dispatch(t *Task) {
	switch {
	case s.running[t.Source] == nil && s.running[t.Target] == nil:
		s.start(t)
	case s.running[t.Target] != nil:
		s.enqueue(t, t.Target)
	default:
		s.enqueue(t, t.Source)
	}
}

// enqueue links t at the tail of disk d's queue.
//
//farm:hotpath queue append, an intrusive link
func (s *Scheduler) enqueue(t *Task, d int) {
	q := &s.waiting[d]
	t.queuedOn = d
	t.prev, t.next = q.tail, nil
	if q.tail == nil {
		q.head = t
	} else {
		q.tail.next = t
	}
	q.tail = t
	s.queued++
}

// unlink removes pending task t from its disk's queue.
//
//farm:hotpath queue removal on every hand-off and pending cancel
func (s *Scheduler) unlink(t *Task) {
	q := &s.waiting[t.queuedOn]
	if t.prev == nil {
		q.head = t.next
	} else {
		t.prev.next = t.next
	}
	if t.next == nil {
		q.tail = t.prev
	} else {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
	s.queued--
}

// start begins t's transfer on both disks.
//
//farm:hotpath every transfer start
func (s *Scheduler) start(t *Task) {
	s.running[t.Source] = t
	s.running[t.Target] = t
	t.state = taskRunning
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
	t.event = s.eng.AfterArg(dur, "rebuild-done", s.done, t.Source)
}

// finishOn completes the transfer running from disk src (its
// "rebuild-done" event). The endpoints are read before OnDone: the
// engine may re-point and resubmit the same task from inside the hook.
func (s *Scheduler) finishOn(now sim.Time, src int) {
	t := s.running[src]
	tgt := t.Target
	t.event = sim.Handle{}
	t.state = taskDone
	s.running[src] = nil
	s.running[tgt] = nil
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
	for q.head != nil && s.running[d] == nil {
		t := q.head
		s.unlink(t)
		s.dispatch(t)
	}
}

// Cancel aborts a task's current attempt. A running transfer releases
// both disks (and wakes their queues); a waiting task leaves its queue.
// Returns false if the attempt already completed. A task that was never
// submitted stays idle.
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
		s.running[t.Source] = nil
		s.running[t.Target] = nil
		if s.Release != nil {
			s.Release(t)
		}
		s.drain(t.Source)
		s.drain(t.Target)
		return true
	default: // pending
		s.unlink(t)
		t.state = taskCancelled
		return true
	}
}
