package sim

import (
	"math"
	"testing"
	"unsafe"
)

// TestSlotSize pins the arena cell at 32 bytes: the second callback word
// ScheduleArg needs costs 8 bytes, the argument itself none (it rides in
// the free-list link).
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 32 {
		t.Fatalf("slot is %d bytes, want <= 32", n)
	}
}

// TestScheduleArgFIFOMixed: plain and arg events scheduled for the same
// instant fire in scheduling order, whichever form each took.
func TestScheduleArgFIFOMixed(t *testing.T) {
	e := New()
	var got []int
	plain := func(i int) func(Time) { return func(Time) { got = append(got, i) } }
	withArg := func(_ Time, arg int) { got = append(got, arg) }
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			e.Schedule(5, "plain", plain(i))
		} else {
			e.ScheduleArg(5, "arg", withArg, i)
		}
	}
	e.Run()
	if len(got) != 40 {
		t.Fatalf("fired %d of 40", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", got)
		}
	}
}

// TestScheduleArgRoundTrip: the argument reaches the handler unchanged
// at 0 and at the largest disk id, and an argument outside int32 panics
// instead of being truncated.
func TestScheduleArgRoundTrip(t *testing.T) {
	e := New()
	var got []int
	record := func(_ Time, arg int) { got = append(got, arg) }
	e.ScheduleArg(1, "zero", record, 0)
	e.ScheduleArg(2, "max", record, math.MaxInt32)
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != math.MaxInt32 {
		t.Fatalf("args %v, want [0 %d]", got, math.MaxInt32)
	}
	for _, bad := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		func() {
			defer func() {
				if recover() != ErrArg {
					t.Errorf("ScheduleArg(%d) did not panic with ErrArg", bad)
				}
			}()
			e.ScheduleArg(3, "bad", record, bad)
		}()
	}
	if e.Len() != 0 {
		t.Fatalf("a rejected argument left %d events queued", e.Len())
	}
}

// TestScheduleArgHandles: an arg event's Handle answers Pending,
// EventTime and Cancel like a plain one; a cancelled arg slot is reused
// (by either form) under a new generation, and the stale handle cannot
// touch the new tenant.
func TestScheduleArgHandles(t *testing.T) {
	e := New()
	fired := map[int]bool{}
	record := func(_ Time, arg int) { fired[arg] = true }
	h := e.ScheduleArg(42, "arg", record, 7)
	if !h.Valid() || !e.Pending(h) {
		t.Fatal("fresh arg handle not pending")
	}
	if at, ok := e.EventTime(h); !ok || at != 42 {
		t.Fatalf("EventTime = %v, %v; want 42, true", at, ok)
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel of a live arg event failed")
	}
	if e.Pending(h) || e.Cancel(h) {
		t.Fatal("cancelled arg handle still live")
	}
	if _, ok := e.EventTime(h); ok {
		t.Fatal("EventTime ok for a cancelled arg event")
	}
	// The freed slot heads the free list: a plain event takes it, then
	// an arg event takes the next slot freed.
	plainFired := false
	h2 := e.Schedule(50, "plain", func(Time) { plainFired = true })
	if h2.idx != h.idx || h2 == h {
		t.Fatalf("cancelled slot not reused under a new generation: %v then %v", h, h2)
	}
	if e.Cancel(h) || !e.Pending(h2) {
		t.Fatal("stale arg handle disturbed the slot's new tenant")
	}
	if !e.Cancel(h2) {
		t.Fatal("Cancel of the plain tenant failed")
	}
	h3 := e.ScheduleArg(60, "arg", record, 9)
	if h3.idx != h.idx {
		t.Fatalf("slot %d not reused by the arg event (got %d)", h.idx, h3.idx)
	}
	e.Run()
	if plainFired || fired[7] || !fired[9] {
		t.Fatalf("fired plain=%v 7=%v 9=%v; want only 9", plainFired, fired[7], fired[9])
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after Run", e.Len())
	}
}

// TestScheduleArgZeroAlloc: once the arena and heap cover the queue
// depth, arming and firing arg events with a handler bound once
// allocates nothing.
func TestScheduleArgZeroAlloc(t *testing.T) {
	e := New()
	sum := 0
	handler := func(_ Time, arg int) { sum += arg }
	cycle := func() {
		for id := 0; id < 64; id++ {
			e.ScheduleArg(e.Now()+Time(id%5), "arg", handler, id)
		}
		e.Run()
	}
	cycle() // warm the arena and heap
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("ScheduleArg/Step cycle allocates %v times per run, want 0", n)
	}
	if sum == 0 {
		t.Fatal("handler never ran")
	}
}
