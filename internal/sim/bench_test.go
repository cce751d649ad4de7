package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkKernelAfter measures the schedule-and-fire cycle of the
// closure-free fast path: one event scheduled and run per iteration.
func BenchmarkKernelAfter(b *testing.B) {
	k := New(1)
	nop := func(a0, a1 any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAfterCancel measures the schedule-then-cancel cycle:
// the cancelled event must be physically removed and its struct
// recycled without garbage.
func BenchmarkKernelAfterCancel(b *testing.B) {
	k := New(1)
	nop := func(a0, a1 any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.AfterFunc(time.Microsecond, nop, nil, nil)
		if !tm.Cancel() {
			b.Fatal("cancel failed")
		}
	}
}

// BenchmarkEventQueueHold runs the hold model on the kernel: a fixed
// population of pending events, each of which schedules its successor
// a random gap ahead when it fires, so that an iteration is one pop
// and one push at that depth. 12 pending events is fig5-packet's
// operating point, 1,024 the admission storm's.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, pending := range []int{12, 1024} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			k := New(1)
			h := &hold{k: k, left: b.N}
			for i := range h.gaps {
				h.gaps[i] = time.Duration(1+k.RNG().Intn(1000)) * time.Microsecond
			}
			for i := 0; i < pending; i++ {
				k.AfterFunc(h.gaps[i], holdFire, h, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// hold is BenchmarkEventQueueHold's state: the events left to run and
// a table of gaps, drawn before the timer starts.
type hold struct {
	k    *Kernel
	left int
	next int
	gaps [1024]time.Duration
}

func holdFire(a0, _ any) {
	h := a0.(*hold)
	if h.left--; h.left <= 0 {
		h.k.Stop()
	}
	h.next = (h.next + 1) % len(h.gaps)
	h.k.AfterFunc(h.gaps[h.next], holdFire, h, nil)
}

// TestKernelAfterFuncZeroAlloc pins the zero-allocation guarantee of
// the pooled event path once the freelist is warm.
func TestKernelAfterFuncZeroAlloc(t *testing.T) {
	k := New(1)
	nop := func(a0, a1 any) {}
	// Warm the freelist and the heap slice.
	for i := 0; i < 64; i++ {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Run allocates %.1f objects per event, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		k.AfterFunc(time.Microsecond, nop, nil, nil).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Cancel allocates %.1f objects per event, want 0", allocs)
	}
}

// TestCancelKeepsQueueBounded is the regression test for the old lazy
// tombstoning behaviour, where cancelled timers sat in the heap until
// their scheduled instant. A workload that perpetually re-arms a
// far-future timer (the shape of TCP retransmit timers under steady
// ACK flow) must keep the live queue bounded.
func TestCancelKeepsQueueBounded(t *testing.T) {
	k := New(1)
	nop := func(a0, a1 any) {}
	var tm Timer
	const rearms = 100000
	for i := 0; i < rearms; i++ {
		tm.Cancel()
		// Far future relative to the workload: with tombstoning these
		// would all accumulate.
		tm = k.AfterFunc(time.Hour, nop, nil, nil)
		if n := k.PendingEvents(); n > 1 {
			t.Fatalf("after %d re-arms: %d events pending, want <= 1", i+1, n)
		}
	}
	if !tm.Pending() {
		t.Fatal("last timer should still be pending")
	}
	tm.Cancel()
	if n := k.PendingEvents(); n != 0 {
		t.Fatalf("queue has %d events after final cancel, want 0", n)
	}
}

// TestTimerHandleStaleness pins the generation-counter semantics: a
// handle to a fired or cancelled event must read as inert even after
// the pooled struct is reused by a new event.
func TestTimerHandleStaleness(t *testing.T) {
	k := New(1)
	fired := 0
	old := k.After(time.Millisecond, func() { fired++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Reuse the pooled struct for a fresh event.
	fresh := k.After(time.Millisecond, func() { fired++ })
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled the reused event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer not pending")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// BenchmarkProcSleep measures one process wakeup: a Ctx.Sleep event
// fires, the kernel hands control to the process, and the process
// schedules its next sleep and hands control back.
func BenchmarkProcSleep(b *testing.B) {
	k := New(1)
	n := b.N
	k.Spawn("sleeper", func(ctx *Ctx) {
		for i := 0; i < n; i++ {
			ctx.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures a process's whole life: spawn, start event,
// run to completion, and the kernel forgetting it.
func BenchmarkSpawn(b *testing.B) {
	k := New(1)
	body := func(ctx *Ctx) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Spawn("p", body)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCondSignalWait measures a Signal/Wait ping-pong between two
// processes; one iteration is one handoff each way.
func BenchmarkCondSignalWait(b *testing.B) {
	k := New(1)
	n := b.N
	conds := [2]*Cond{NewCond(k), NewCond(k)}
	turn := 0
	for me := 0; me < 2; me++ {
		me := me
		k.Spawn("ping", func(ctx *Ctx) {
			for i := 0; i < n; i++ {
				for turn != me {
					conds[me].Wait(ctx)
				}
				turn = 1 - me
				conds[1-me].Signal()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondAwait measures one wakeup through a Cond: an event
// signals the Cond, and the woken waiter queues itself again. The
// waiter variant is a Waiter's callback, the proc variant a process
// looping on Wait, which costs two coroutine switches a wakeup.
func BenchmarkCondAwait(b *testing.B) {
	for _, waiter := range []bool{true, false} {
		name := "proc"
		if waiter {
			name = "waiter"
		}
		b.Run(name, func(b *testing.B) {
			k := New(1)
			defer k.Close()
			c := NewCond(k)
			if waiter {
				var w *Waiter
				w = k.NewWaiter(func() { c.Await(w) })
				c.Await(w)
			} else {
				k.Spawn("waiter", func(ctx *Ctx) {
					for {
						c.Wait(ctx)
					}
				})
			}
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Signal()
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCondBroadcast measures one Broadcast and the wakeups it
// delivers: an event broadcasts, and every woken waiter queues itself
// again. With 64 waiters the wakeups go through the kernel's herd
// line, with one through an ordinary event; wakeup/op is the cost of
// one wakeup. The waiter variant wakes Waiters' callbacks, the proc
// variant processes looping on Wait.
func BenchmarkCondBroadcast(b *testing.B) {
	for _, n := range []int{1, 64} {
		for _, waiter := range []bool{true, false} {
			name := fmt.Sprintf("waiters=%d/proc", n)
			if waiter {
				name = fmt.Sprintf("waiters=%d/waiter", n)
			}
			b.Run(name, func(b *testing.B) {
				k := New(1)
				defer k.Close()
				c := NewCond(k)
				for i := 0; i < n; i++ {
					if waiter {
						var w *Waiter
						w = k.NewWaiter(func() { c.Await(w) })
						c.Await(w)
					} else {
						k.Spawn("waiter", func(ctx *Ctx) {
							for {
								c.Wait(ctx)
							}
						})
					}
				}
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Broadcast()
					if err := k.Run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/wakeup")
			})
		}
	}
}

// TestProcSleepZeroAlloc pins that a steady-state process wakeup (a
// Sleep event firing and the process sleeping again) allocates
// nothing.
func TestProcSleepZeroAlloc(t *testing.T) {
	k := New(1)
	stop := false
	p := k.Spawn("sleeper", func(ctx *Ctx) {
		for !stop {
			ctx.Sleep(time.Microsecond)
		}
	})
	// Warm the event freelist and the heap slice.
	if err := k.RunFor(64 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := k.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	stop = true
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Sleep wakeup allocates %.1f objects, want 0", allocs)
	}
	if !p.Done() {
		t.Fatal("sleeper did not finish")
	}
}

// BenchmarkLineHop measures one packet-like hop through a delay line
// that keeps 16 callbacks in flight beside 4 ordinary pending events:
// one push and one fire per iteration. The event variant schedules the
// same callbacks as ordinary events, as links did before delay lines,
// so the heap holds all 20.
func BenchmarkLineHop(b *testing.B) {
	const inFlight, gap = 16, time.Microsecond
	nop := func(a0, a1 any) {}
	for _, lined := range []bool{true, false} {
		name := "event"
		if lined {
			name = "line"
		}
		b.Run(name, func(b *testing.B) {
			k := New(1)
			for i := 0; i < 4; i++ {
				k.AfterFunc(time.Hour+time.Duration(i), nop, nil, nil)
			}
			l := k.NewLine(PrioNet)
			push := func(d time.Duration) {
				if lined {
					l.AfterFunc(d, nop, l, nil)
				} else {
					k.AfterPrioFunc(d, PrioNet, nop, l, nil)
				}
			}
			for i := 1; i <= inFlight; i++ {
				push(time.Duration(i) * gap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(inFlight * gap)
				if err := k.RunFor(gap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
