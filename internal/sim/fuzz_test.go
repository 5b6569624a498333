package sim

import (
	"testing"
)

// FuzzEngine interprets a byte stream as a random schedule / schedule-
// with-argument / cancel / step / run-until program against the event
// kernel and checks the invariants everything above the kernel depends
// on:
//
//   - events fire in (time, seq) order: never back in time, and FIFO
//     among events scheduled for the same instant;
//   - the clock never runs backwards and matches each fired event's time;
//   - cancelled events never fire, fired events fire exactly once;
//   - an arg event's handler receives the argument it was scheduled
//     with, and plain and arg events share one FIFO order;
//   - Len agrees with the caller's own pending bookkeeping;
//   - handle generations stay consistent (checked implicitly: under the
//     random cancels and slot reuse, a generation bug would revive a
//     stale handle, double-fire, or misfire).
func FuzzEngine(f *testing.F) {
	// Seed corpus: empty, a plain schedule run, same-time FIFO ties,
	// cancel patterns, and interleaved run-until advances.
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3}) // all at the same instant
	f.Add([]byte{0, 50, 0, 20, 1, 0, 0, 30, 3})
	f.Add([]byte{0, 5, 2, 10, 0, 5, 1, 0, 2, 255, 3})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 2, 3, 0, 2, 3})
	// Slot-reuse stress: cancel, reschedule into the freed slot, then
	// cancel the stale handle again (must be a no-op on the new tenant).
	f.Add([]byte{0, 10, 2, 0, 0, 10, 2, 0, 0, 10, 2, 1, 3, 255})
	// Arg events: same-instant ties mixed with plain events, and an arg
	// slot cancelled and reused by a plain event and vice versa.
	f.Add([]byte{4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 3, 0})
	f.Add([]byte{4, 10, 2, 0, 0, 10, 2, 1, 4, 10, 1, 3, 255})

	f.Fuzz(func(t *testing.T, program []byte) {
		eng := New()

		type tracked struct {
			ev        Handle
			at        Time
			seq       int // order of scheduling, for FIFO checking
			fired     bool
			cancelled bool
		}
		var all []*tracked
		var pending int

		lastAt := Time(-1)
		lastSeq := -1
		check := func(tr *tracked, now Time) {
			if tr.fired {
				t.Fatalf("event %d fired twice", tr.seq)
			}
			if tr.cancelled {
				t.Fatalf("cancelled event %d fired", tr.seq)
			}
			tr.fired = true
			pending--
			if now != tr.at {
				t.Fatalf("event %d fired at %v, scheduled for %v", tr.seq, now, tr.at)
			}
			if now != eng.Now() {
				t.Fatalf("callback now %v != engine now %v", now, eng.Now())
			}
			if now < lastAt {
				t.Fatalf("time ran backwards: %v after %v", now, lastAt)
			}
			if now == lastAt && tr.seq < lastSeq {
				t.Fatalf("FIFO violated at t=%v: seq %d after %d", now, tr.seq, lastSeq)
			}
			lastAt, lastSeq = now, tr.seq
		}
		fire := func(tr *tracked) func(now Time) {
			return func(now Time) { check(tr, now) }
		}
		// One handler for every arg event, bound once as the kernel's
		// callers do: the argument alone names the tracked event.
		fireArg := func(now Time, arg int) { check(all[arg], now) }

		// Interpret the program: opcode byte + operand byte(s). Opcodes
		// are taken mod 4; a schedule opcode with bit 2 set (4, 12, …)
		// schedules through ScheduleArg, so every older corpus entry
		// keeps its program shape.
		for i := 0; i < len(program); i++ {
			switch op := program[i]; op % 4 {
			case 0: // schedule at now + delta; opcode bit 2 selects ScheduleArg
				i++
				if i >= len(program) {
					break
				}
				delta := Time(program[i]) / 16
				tr := &tracked{at: eng.Now() + delta, seq: len(all)}
				if op&4 != 0 {
					tr.ev = eng.ScheduleArg(tr.at, "fuzz-arg", fireArg, tr.seq)
				} else {
					tr.ev = eng.Schedule(tr.at, "fuzz", fire(tr))
				}
				all = append(all, tr)
				pending++
			case 1: // step
				had := eng.Len() > 0
				if eng.Step() != had {
					t.Fatal("Step return disagreed with Len")
				}
			case 2: // cancel an arbitrary tracked event
				i++
				if i >= len(program) || len(all) == 0 {
					break
				}
				tr := all[int(program[i])%len(all)]
				got := eng.Cancel(tr.ev)
				want := !tr.fired && !tr.cancelled
				if got != want {
					t.Fatalf("Cancel(seq %d) = %v, want %v (fired=%v cancelled=%v)",
						tr.seq, got, want, tr.fired, tr.cancelled)
				}
				if got {
					tr.cancelled = true
					pending--
				}
				if eng.Pending(tr.ev) {
					t.Fatalf("event %d still Pending after Cancel", tr.seq)
				}
			case 3: // run until a horizon a little past now
				i++
				var h Time
				if i < len(program) {
					h = Time(program[i]) / 8
				}
				deadline := eng.Now() + h
				eng.RunUntil(deadline)
				if eng.Now() < deadline {
					t.Fatalf("RunUntil left clock at %v < deadline %v", eng.Now(), deadline)
				}
				// Nothing at or before the deadline may remain pending.
				for _, tr := range all {
					if !tr.fired && !tr.cancelled && tr.at <= deadline {
						t.Fatalf("event %d at %v pending past RunUntil(%v)", tr.seq, tr.at, deadline)
					}
				}
			}
			if eng.Len() != pending {
				t.Fatalf("Len() = %d, tracked pending = %d", eng.Len(), pending)
			}
		}

		// Drain: everything not cancelled must fire, in order.
		eng.Run()
		if eng.Len() != 0 {
			t.Fatalf("queue not empty after Run: %d", eng.Len())
		}
		for _, tr := range all {
			if tr.cancelled && tr.fired {
				t.Fatalf("event %d both cancelled and fired", tr.seq)
			}
			if !tr.cancelled && !tr.fired {
				t.Fatalf("event %d neither cancelled nor fired after Run", tr.seq)
			}
		}
	})
}

// FuzzEngineTieOrder focuses the kernel's FIFO-at-equal-times guarantee:
// a batch of events all scheduled for the same instant (encoded by the
// fuzzer as arbitrary group sizes) must fire exactly in scheduling order.
func FuzzEngineTieOrder(f *testing.F) {
	f.Add(uint16(3), uint16(5))
	f.Add(uint16(1), uint16(1))
	f.Add(uint16(64), uint16(2))
	f.Fuzz(func(t *testing.T, groups, perGroup uint16) {
		g := int(groups%64) + 1
		per := int(perGroup%16) + 1
		eng := New()
		next := 0
		want := 0
		for i := 0; i < g; i++ {
			at := Time(i)
			for j := 0; j < per; j++ {
				id := next
				next++
				eng.Schedule(at, "tie", func(now Time) {
					if id != want {
						t.Fatalf("fired %d, want %d (t=%v)", id, want, now)
					}
					want++
				})
			}
		}
		eng.Run()
		if want != next {
			t.Fatalf("fired %d of %d", want, next)
		}
	})
}
