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
	taskPending taskState = iota
	taskRunning
	taskDone
	taskCancelled
)

// Task is one block rebuild: read from Source, write to Target, taking
// Duration of virtual time once both disks are free.
type Task struct {
	Group  int
	Rep    int
	Source int
	Target int
	// Duration is the transfer time once started.
	Duration sim.Time
	// SubmittedAt records when the rebuild was first requested, for
	// window-of-vulnerability statistics.
	SubmittedAt sim.Time
	// StartedAt records when the transfer actually began (queue wait is
	// StartedAt - SubmittedAt); meaningful once the task is running.
	StartedAt sim.Time

	state    taskState
	event    sim.Handle
	onDone   func(now sim.Time, t *Task)
	queuedOn int // disk queue currently holding the task, -1 if none
	// shaped is the effective transfer time after the Shape hook
	// (network contention) stretched Duration; equal to Duration when no
	// hook is installed. Set at transfer start.
	shaped sim.Time
	// rb is the block rebuild this attempt belongs to (nil for tasks
	// submitted outside an engine); the span layer's OnStart hook marks
	// its first transfer start.
	rb *rebuild
}

// State helpers used by engines and tests.
func (t *Task) Done() bool      { return t.state == taskDone }
func (t *Task) Cancelled() bool { return t.state == taskCancelled }
func (t *Task) Running() bool   { return t.state == taskRunning }

// Scheduler serializes rebuild transfers per disk: each disk performs at
// most one recovery transfer at a time. Tasks whose source or target is
// busy wait in that disk's FIFO queue.
type Scheduler struct {
	eng     *sim.Engine
	busy    []bool
	waiting [][]*Task
	// Started counts transfers begun; Completed counts finished.
	Started   int
	Completed int
	// BusyHours accumulates disk-hours spent on recovery transfers (two
	// disks per transfer) — the degraded-mode interference the paper's
	// declustering argument is about.
	BusyHours float64
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
		waiting: make([][]*Task, numDisks),
	}
}

// Grow extends the per-disk tables after disks are added to the cluster.
func (s *Scheduler) Grow(numDisks int) {
	for len(s.busy) < numDisks {
		s.busy = append(s.busy, false)
		s.waiting = append(s.waiting, nil)
	}
}

// Busy reports whether disk id is mid-transfer.
func (s *Scheduler) Busy(id int) bool { return s.busy[id] }

// QueueLen returns the number of tasks waiting on disk id.
func (s *Scheduler) QueueLen(id int) int { return len(s.waiting[id]) }

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
// (cancelled or re-filed entries are lazily removed, so they are
// skipped here). Read-only; used by the state sampler.
func (s *Scheduler) QueuedTransfers() int {
	n := 0
	for d, q := range s.waiting {
		for _, t := range q {
			if t.state == taskPending && t.queuedOn == d {
				n++
			}
		}
	}
	return n
}

// Submit queues a rebuild. onDone fires at completion with the simulation
// time. The task starts immediately if both disks are idle.
func (s *Scheduler) Submit(t *Task, onDone func(now sim.Time, t *Task)) {
	if t.Source == t.Target {
		panic(fmt.Sprintf("recovery: task %d/%d source == target %d", t.Group, t.Rep, t.Source))
	}
	t.onDone = onDone
	t.state = taskPending
	t.queuedOn = -1
	t.SubmittedAt = s.eng.Now()
	s.dispatch(t)
}

// dispatch starts t if possible, otherwise parks it on a busy disk's queue.
func (s *Scheduler) dispatch(t *Task) {
	switch {
	case !s.busy[t.Source] && !s.busy[t.Target]:
		s.start(t)
	case s.busy[t.Target]:
		t.queuedOn = t.Target
		s.waiting[t.Target] = append(s.waiting[t.Target], t)
	default:
		t.queuedOn = t.Source
		s.waiting[t.Source] = append(s.waiting[t.Source], t)
	}
}

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
	t.event = s.eng.After(dur, "rebuild-done", func(now sim.Time) {
		t.event = sim.Handle{}
		t.state = taskDone
		s.busy[t.Source] = false
		s.busy[t.Target] = false
		s.Completed++
		if s.Release != nil {
			s.Release(t)
		}
		s.BusyHours += 2 * float64(t.shaped)
		done := t.onDone
		if done != nil {
			done(now, t)
		}
		s.drain(t.Source)
		s.drain(t.Target)
	})
}

// drain starts or re-files tasks waiting on disk d after it frees up.
func (s *Scheduler) drain(d int) {
	for len(s.waiting[d]) > 0 && !s.busy[d] {
		t := s.waiting[d][0]
		s.waiting[d] = s.waiting[d][1:]
		if t.state != taskPending || t.queuedOn != d {
			continue // cancelled or moved
		}
		t.queuedOn = -1
		s.dispatch(t)
	}
}

// Cancel aborts a task. A running transfer releases both disks (and wakes
// their queues); a waiting task is lazily removed from its queue. Returns
// false if the task already completed.
func (s *Scheduler) Cancel(t *Task) bool {
	switch t.state {
	case taskDone, taskCancelled:
		return t.state == taskCancelled
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
