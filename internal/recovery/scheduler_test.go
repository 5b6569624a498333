package recovery

import (
	"testing"

	"repro/internal/sim"
)

func TestSchedulerParallelWhenDisjoint(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 6)
	var doneAt []sim.Time
	s.OnDone = func(now sim.Time, _ *Task) { doneAt = append(doneAt, now) }
	for i := 0; i < 3; i++ {
		s.Submit(&Task{Group: i, Source: i * 2, Target: i*2 + 1, Duration: 10})
	}
	eng.Run()
	if len(doneAt) != 3 {
		t.Fatalf("completed %d tasks", len(doneAt))
	}
	for _, at := range doneAt {
		if at != 10 {
			t.Fatalf("disjoint tasks did not run in parallel: done at %v", at)
		}
	}
	if s.Started != 3 || s.Completed != 3 {
		t.Fatalf("counters: started=%d completed=%d", s.Started, s.Completed)
	}
}

func TestSchedulerSerializesSharedTarget(t *testing.T) {
	// The no-FARM situation: every task writes to disk 5.
	eng := sim.New()
	s := NewScheduler(eng, 6)
	var doneAt []sim.Time
	s.OnDone = func(now sim.Time, _ *Task) { doneAt = append(doneAt, now) }
	for i := 0; i < 4; i++ {
		s.Submit(&Task{Group: i, Source: i, Target: 5, Duration: 10})
	}
	eng.Run()
	want := []sim.Time{10, 20, 30, 40}
	if len(doneAt) != len(want) {
		t.Fatalf("completed %d tasks", len(doneAt))
	}
	for i, at := range doneAt {
		if at != want[i] {
			t.Fatalf("serialized completion %d at %v, want %v", i, at, want[i])
		}
	}
}

func TestSchedulerSerializesSharedSource(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 6)
	var doneAt []sim.Time
	s.OnDone = func(now sim.Time, _ *Task) { doneAt = append(doneAt, now) }
	for i := 0; i < 2; i++ {
		s.Submit(&Task{Group: i, Source: 0, Target: i + 1, Duration: 5})
	}
	eng.Run()
	if len(doneAt) != 2 || doneAt[0] != 5 || doneAt[1] != 10 {
		t.Fatalf("shared source not serialized: %v", doneAt)
	}
}

func TestSchedulerChainedDependency(t *testing.T) {
	// t1 uses (0,1); t2 uses (1,2); t3 uses (2,3). At submit time t2's
	// source (1) is busy, so t2 waits for t1; t3's disks are both free,
	// so t3 runs alongside t1. Completion order: 1 and 3 at t=10 (FIFO),
	// then 2 at t=20.
	eng := sim.New()
	s := NewScheduler(eng, 4)
	var order []int
	s.OnDone = func(_ sim.Time, t *Task) { order = append(order, t.Group) }
	submit := func(id, src, tgt int) {
		s.Submit(&Task{Group: id, Source: src, Target: tgt, Duration: 10})
	}
	submit(1, 0, 1)
	submit(2, 1, 2)
	submit(3, 2, 3)
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("chain order %v, want [1 3 2]", order)
	}
	if eng.Now() != 20 {
		t.Fatalf("finished at %v, want 20", eng.Now())
	}
}

func TestSchedulerRefileBetweenQueues(t *testing.T) {
	// t2 parks on busy target 2; when 2 frees, its source 1 is still busy
	// (t3 holds it), so t2 re-files onto disk 1's queue and runs last.
	eng := sim.New()
	s := NewScheduler(eng, 4)
	var order []int
	s.OnDone = func(_ sim.Time, t *Task) { order = append(order, t.Group) }
	add := func(id, src, tgt int, dur sim.Time) {
		s.Submit(&Task{Group: id, Source: src, Target: tgt, Duration: dur})
	}
	add(1, 0, 2, 5)  // holds 2 until t=5
	add(3, 1, 3, 20) // holds 1 until t=20
	add(2, 1, 2, 5)  // target 2 busy -> parks on 2; at t=5 re-files to 1; runs at 20
	eng.Run()
	if len(order) != 3 || order[len(order)-1] != 2 {
		t.Fatalf("re-file order %v, want task 2 last", order)
	}
}

func TestSchedulerCancelPending(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 3)
	done := 0
	s.OnDone = func(sim.Time, *Task) { done++ }
	t1 := &Task{Group: 1, Source: 0, Target: 1, Duration: 10}
	t2 := &Task{Group: 2, Source: 0, Target: 2, Duration: 10}
	s.Submit(t1)
	s.Submit(t2)
	if !s.Cancel(t2) {
		t.Fatal("cancel pending failed")
	}
	eng.Run()
	if done != 1 {
		t.Fatalf("done = %d, want 1 (cancelled task must not fire)", done)
	}
	if !t2.Cancelled() || !t1.Done() {
		t.Fatal("task states wrong")
	}
}

func TestSchedulerCancelRunningFreesDisks(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 3)
	done := 0
	s.OnDone = func(sim.Time, *Task) { done++ }
	t1 := &Task{Group: 1, Source: 0, Target: 1, Duration: 100}
	t2 := &Task{Group: 2, Source: 0, Target: 2, Duration: 10}
	s.Submit(t1)
	s.Submit(t2)
	if !s.Busy(0) || !s.Busy(1) {
		t.Fatal("t1 should be running")
	}
	s.Cancel(t1)
	if s.Busy(1) {
		t.Fatal("cancel did not free target")
	}
	eng.Run()
	if done != 1 {
		t.Fatalf("done = %d, want 1", done)
	}
	if eng.Now() != 10 {
		t.Fatalf("t2 should have started immediately after cancel; ended at %v", eng.Now())
	}
}

func TestSchedulerCancelDoneReturnsFalse(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 2)
	task := &Task{Group: 1, Source: 0, Target: 1, Duration: 1}
	s.Submit(task)
	eng.Run()
	if s.Cancel(task) {
		t.Fatal("cancelling a done task returned true")
	}
}

func TestSchedulerGrow(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 2)
	s.Grow(5)
	task := &Task{Group: 1, Source: 0, Target: 4, Duration: 1}
	s.Submit(task)
	eng.Run()
	if !task.Done() {
		t.Fatal("task on grown disk slot did not run")
	}
	if s.QueueLen(4) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSchedulerSameSourceTargetPanics(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("source == target did not panic")
		}
	}()
	s.Submit(&Task{Group: 1, Source: 1, Target: 1, Duration: 1})
}

func TestSchedulerFIFOFairness(t *testing.T) {
	// Tasks contending on one target complete in submission order.
	eng := sim.New()
	s := NewScheduler(eng, 10)
	var order []int
	s.OnDone = func(_ sim.Time, t *Task) { order = append(order, t.Group) }
	for i := 0; i < 8; i++ {
		s.Submit(&Task{Group: i, Source: i, Target: 9, Duration: 1})
	}
	eng.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

// TestSchedulerStaleEntryAfterResubmit: a cancelled attempt's queue entry
// must stay dead when the same Task is resubmitted. The task first waits
// on busy disk 1 and is cancelled; u queues behind that stale entry;
// then the task is resubmitted on another pair, which again waits on
// disk 1, behind u. When disk 1 frees, exactly one transfer starts and
// it is u's — honouring the stale entry would let the task jump the
// queue — and the task still runs and completes exactly once.
func TestSchedulerStaleEntryAfterResubmit(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 6)
	done := map[*Task]int{}
	s.OnDone = func(_ sim.Time, tk *Task) { done[tk]++ }
	blocker := &Task{Group: 0, Source: 0, Target: 1, Duration: 10}
	s.Submit(blocker)
	task := &Task{Group: 1, Source: 2, Target: 1, Duration: 1}
	s.Submit(task)
	if !s.Cancel(task) {
		t.Fatal("cancel of a queued attempt failed")
	}
	u := &Task{Group: 2, Source: 3, Target: 1, Duration: 1}
	s.Submit(u)
	task.Source, task.Target = 1, 5
	s.Submit(task)
	if s.QueuedTransfers() != 2 {
		t.Fatalf("queued = %d, want 2 live entries (u and the resubmitted task)", s.QueuedTransfers())
	}
	started := s.Started
	s.Cancel(blocker) // frees disk 1
	if s.Started != started+1 {
		t.Fatalf("freeing disk 1 started %d transfers, want 1", s.Started-started)
	}
	if !u.Running() || task.Running() {
		t.Fatalf("after disk 1 frees: u running=%v, task running=%v; want u first", u.Running(), task.Running())
	}
	eng.Run()
	if done[task] != 1 || done[u] != 1 || done[blocker] != 0 {
		t.Fatalf("completions task=%d u=%d blocker=%d, want 1 1 0", done[task], done[u], done[blocker])
	}
	if s.Started != 3 || s.QueueLen(1) != 0 {
		t.Fatalf("started %d transfers, disk 1 queue %d; want 3 and 0", s.Started, s.QueueLen(1))
	}
}

// TestFIFOCompactsBusyQueue: a disk that stays busy with a short queue
// for many transfers never empties its FIFO. Its queue must hold only
// the tasks waiting now — each hand-off unlinks the task it starts —
// and keep serving them in submission order.
func TestFIFOCompactsBusyQueue(t *testing.T) {
	const k, cycles = 4, 10000
	eng := sim.New()
	s := NewScheduler(eng, k+1)
	done := 0
	var order []int
	s.OnDone = func(_ sim.Time, task *Task) {
		done++
		order = append(order, task.Group)
		if done+k > cycles {
			return
		}
		// Resubmit once this completion's drain has started the next
		// waiter, so the task joins the tail of disk 0's queue.
		eng.After(0, "resubmit", func(sim.Time) { s.Submit(task) })
	}
	for i := 0; i < k; i++ {
		s.Submit(&Task{Group: i, Source: i + 1, Target: 0, Duration: 1})
	}
	maxLen := 0
	for eng.Step() {
		maxLen = max(maxLen, s.QueueLen(0))
		if s.QueuedTransfers() != s.QueueLen(0) {
			t.Fatalf("QueuedTransfers %d, disk 0 queue %d", s.QueuedTransfers(), s.QueueLen(0))
		}
	}
	if done != cycles {
		t.Fatalf("completed %d transfers, want %d", done, cycles)
	}
	if maxLen >= k {
		t.Fatalf("disk 0 queue grew to %d entries with %d tasks, one of them running", maxLen, k)
	}
	for i, g := range order {
		if g != i%k {
			t.Fatalf("completion %d is task %d, want %d (FIFO order lost)", i, g, i%k)
		}
	}
}

// TestSchedulerCancelUnlinksAtOnce: cancelling a waiting task takes it
// out of its disk's queue there and then, and submitting a task that is
// still waiting panics.
func TestSchedulerCancelUnlinksAtOnce(t *testing.T) {
	eng := sim.New()
	s := NewScheduler(eng, 5)
	s.Submit(&Task{Group: 0, Source: 0, Target: 1, Duration: 10})
	a := &Task{Group: 1, Source: 2, Target: 1, Duration: 1}
	b := &Task{Group: 2, Source: 3, Target: 1, Duration: 1}
	c := &Task{Group: 3, Source: 4, Target: 1, Duration: 1}
	s.Submit(a)
	s.Submit(b)
	s.Submit(c)
	if s.QueueLen(1) != 3 || s.QueuedTransfers() != 3 {
		t.Fatalf("queue %d, queued %d; want 3 and 3", s.QueueLen(1), s.QueuedTransfers())
	}
	s.Cancel(b)
	if s.QueueLen(1) != 2 || s.QueuedTransfers() != 2 {
		t.Fatalf("after cancelling the middle task: queue %d, queued %d; want 2 and 2", s.QueueLen(1), s.QueuedTransfers())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("resubmitting a waiting task did not panic")
			}
		}()
		s.Submit(c)
	}()
	var order []int
	s.OnDone = func(_ sim.Time, tk *Task) { order = append(order, tk.Group) }
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("completion order %v, want [0 1 3]", order)
	}
}
