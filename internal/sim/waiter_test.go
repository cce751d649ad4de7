package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// An awaitOp is one step of an actor's script.
type awaitOp struct {
	kind int // one of the aw* constants
	cond int
	d    time.Duration
}

const (
	awSleep = iota
	awWait
	awWaitTimeout
	awSignal
	awBroadcast
)

// awaitProgram is a generated program: actors that sleep, wait on and
// signal a few Conds, and kernel events that signal them too.
type awaitProgram struct {
	conds  int
	actors [][]awaitOp
	// waiter marks the actors that run as Waiters in the mixed run.
	waiter []bool
	kicks  []awaitOp // awSignal/awBroadcast at time d
}

func genAwaitProgram(seed int64) awaitProgram {
	r := NewRNG(seed)
	prog := awaitProgram{conds: 1 + r.Intn(3)}
	gap := func() time.Duration { return time.Duration(r.Intn(3)) * time.Millisecond }
	for a, n := 0, 2+r.Intn(7); a < n; a++ {
		timed := r.Intn(3) == 0
		var ops []awaitOp
		for i, m := 0, 1+r.Intn(12); i < m; i++ {
			op := awaitOp{kind: r.Intn(5), cond: r.Intn(prog.conds), d: gap()}
			if op.kind == awWaitTimeout && !timed {
				op.kind = awWait
			}
			ops = append(ops, op)
		}
		prog.actors = append(prog.actors, ops)
		prog.waiter = append(prog.waiter, r.Intn(2) == 0)
	}
	for i, n := 0, r.Intn(8); i < n; i++ {
		kind := awSignal
		if r.Intn(3) == 0 {
			kind = awBroadcast
		}
		prog.kicks = append(prog.kicks, awaitOp{kind: kind, cond: r.Intn(prog.conds), d: time.Duration(r.Intn(20)) * time.Millisecond})
	}
	return prog
}

// awaitWorld runs one program, with the waiter actors as Waiters
// (mixed) or with every actor a process.
type awaitWorld struct {
	k     *Kernel
	conds []*Cond
	trace strings.Builder
	// kicked holds the (Cond, instant) pairs of every Signal and
	// Broadcast; expiry holds each timed wait's Cond and expiry
	// instant.
	kicked map[[2]int64]bool
	expiry []struct {
		cond int
		at   time.Duration
	}
}

// races counts the timed waits whose expiry instant is also an instant
// at which their Cond was signalled, so that the timeout and the
// Signal raced.
func (w *awaitWorld) races() int {
	n := 0
	for _, e := range w.expiry {
		if w.kicked[[2]int64{int64(e.cond), int64(e.at)}] {
			n++
		}
	}
	return n
}

func (w *awaitWorld) rec(id, pc int, what string) {
	fmt.Fprintf(&w.trace, "%d a%d.%d %s ran=%d\n", w.k.Now(), id, pc, what, w.k.EventsRun())
}

func (w *awaitWorld) kick(op awaitOp) {
	w.kicked[[2]int64{int64(op.cond), int64(w.k.Now())}] = true
	if op.kind == awBroadcast {
		w.conds[op.cond].Broadcast()
	} else {
		w.conds[op.cond].Signal()
	}
}

// awaitActor is a script interpreter that runs as a process body or
// as a Waiter's callback.
type awaitActor struct {
	w   *awaitWorld
	id  int
	ops []awaitOp
	pc  int
	wt  *Waiter
	// timer is the expiry of the waiter's AwaitTimeout while timed is
	// set.
	timer Timer
	timed bool
}

// timeout is a timed wait's timeout.
func (op awaitOp) timeout() time.Duration { return op.d + time.Millisecond }

// timedWait notes a timed wait's expiry instant for races.
func (w *awaitWorld) timedWait(op awaitOp) {
	w.expiry = append(w.expiry, struct {
		cond int
		at   time.Duration
	}{op.cond, w.k.Now() + op.timeout()})
}

func (a *awaitActor) body(ctx *Ctx) {
	for a.pc < len(a.ops) {
		op := a.ops[a.pc]
		a.pc++
		a.w.rec(a.id, a.pc, "proc")
		switch op.kind {
		case awSleep:
			ctx.Sleep(op.d)
		case awWait:
			a.w.conds[op.cond].Wait(ctx)
		case awWaitTimeout:
			a.w.timedWait(op)
			ok := a.w.conds[op.cond].WaitTimeout(ctx, op.timeout())
			a.w.rec(a.id, a.pc, fmt.Sprint("woken=", ok))
		default:
			a.w.kick(op)
		}
	}
	a.w.rec(a.id, a.pc, "end")
}

// step is the Waiter's callback: it runs the script up to the next
// blocking step, using AwaitTimeout where the process uses WaitTimeout
// and WakeAfter where it sleeps.
func (a *awaitActor) step() {
	if a.timed {
		a.timed = false
		a.timer.Cancel()
		a.w.rec(a.id, a.pc, fmt.Sprint("woken=", !a.wt.p.timedOut))
	}
	for a.pc < len(a.ops) {
		op := a.ops[a.pc]
		a.pc++
		a.w.rec(a.id, a.pc, "proc")
		switch op.kind {
		case awSleep:
			a.wt.WakeAfter(op.d)
			return
		case awWait:
			a.w.conds[op.cond].Await(a.wt)
			return
		case awWaitTimeout:
			a.w.timedWait(op)
			a.timer = a.w.conds[op.cond].AwaitTimeout(a.wt, op.timeout())
			a.timed = true
			return
		default:
			a.w.kick(op)
		}
	}
	a.w.rec(a.id, a.pc, "end")
}

// runAwait runs prog until the kernel drains or a deadline passes and
// returns the world, its kernel still open.
func runAwait(t *testing.T, seed int64, prog awaitProgram, mixed bool, deadline time.Duration) *awaitWorld {
	w := &awaitWorld{k: New(seed), kicked: make(map[[2]int64]bool)}
	for i := 0; i < prog.conds; i++ {
		w.conds = append(w.conds, NewCond(w.k))
	}
	for id, ops := range prog.actors {
		a := &awaitActor{w: w, id: id, ops: ops}
		if mixed && prog.waiter[id] {
			a.wt = w.k.NewWaiter(a.step)
			a.wt.Wake()
		} else {
			w.k.Spawn(fmt.Sprint("a", id), a.body)
		}
	}
	for _, op := range prog.kicks {
		op := op
		w.k.At(op.d, PrioNormal, func() { w.kick(op) })
	}
	if err := w.k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&w.trace, "end now=%d ran=%d\n", w.k.Now(), w.k.EventsRun())
	return w
}

// TestAwaitDifferential runs generated programs twice: once with some
// actors as Waiters queued FIFO beside processes on the same Conds,
// waiting with Await, AwaitTimeout and WakeAfter, and once with every
// actor a process using Wait, WaitTimeout and Sleep. Each step's time
// and event count, each timed wait's outcome, and the final event
// count must be equal. Timeouts and kicks fall on one millisecond
// grid, so some timeouts race a Signal at the same instant.
func TestAwaitDifferential(t *testing.T) {
	races := 0
	for seed := int64(1); seed <= 400; seed++ {
		prog := genAwaitProgram(seed)
		want := runAwait(t, seed, prog, false, time.Hour)
		got := runAwait(t, seed, prog, true, time.Hour)
		want.k.Close()
		got.k.Close()
		races += got.races()
		if g, w := got.trace.String(), want.trace.String(); g != w {
			gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("seed %d: traces diverge at entry %d:\nmixed:     %s\nprocesses: %s", seed, i, gl[i], wl[min(i, len(wl)-1)])
				}
			}
			t.Fatalf("seed %d: mixed trace is a prefix of the process one", seed)
		}
	}
	if races == 0 {
		t.Fatal("no timed wait raced a Signal at its expiry instant")
	}
	t.Logf("%d timed waits raced a Signal at their expiry instant", races)
}

// TestAwaitClose closes kernels with waiters and processes parked on
// Conds: no process or event is left, no waiter or process runs
// afterwards, and the goroutine count is back where it started.
func TestAwaitClose(t *testing.T) {
	base := runtime.NumGoroutine() - idleCount()
	queued := 0
	for seed := int64(1); seed <= 50; seed++ {
		prog := genAwaitProgram(seed)
		w := runAwait(t, seed, prog, true, 5*time.Millisecond)
		for _, c := range w.conds {
			queued += c.Waiting()
		}
		w.k.Close()
		if len(w.k.procs) != 0 || w.k.PendingEvents() != 0 {
			t.Fatalf("seed %d: after Close: live %d, pending %d", seed, len(w.k.procs), w.k.PendingEvents())
		}
		// Waking what the Conds still hold runs no step of any actor.
		trace := w.trace.Len()
		for _, c := range w.conds {
			c.Broadcast()
		}
		if err := w.k.Run(); err != nil {
			t.Fatal(err)
		}
		if w.trace.Len() != trace {
			t.Fatalf("seed %d: an actor ran after Close", seed)
		}
	}
	if queued == 0 {
		t.Fatal("no program left anything queued on a Cond at Close")
	}
	if want := base + idleCount(); goroutinesAtMost(want) > want {
		t.Fatalf("%d goroutines after Close, want %d (%d idle in the pool)", runtime.NumGoroutine(), want, idleCount())
	}
}

// TestAwaitTimeoutClose closes a kernel while waiters sit in
// AwaitTimeout and WakeAfter: their expiries and wakeups go with the
// event queue, and neither the passing of their time nor a later
// Broadcast runs a callback. A waiter that timed out before Close
// reports it.
func TestAwaitTimeoutClose(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	ran := make([]int, 5)
	var ws []*Waiter
	for i := range ran {
		w := k.NewWaiter(func() { ran[i]++ })
		ws = append(ws, w)
		if i == len(ran)-1 {
			w.WakeAfter(time.Hour)
			continue
		}
		c.AwaitTimeout(w, time.Duration(i+1)*time.Millisecond)
	}
	if err := k.RunUntil(k.Now() + 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ran[0] != 1 || !ws[0].p.timedOut || c.Waiting() != 3 {
		t.Fatalf("before Close: ran %v, timed out %v, waiting %d", ran, ws[0].p.timedOut, c.Waiting())
	}
	k.Close()
	if len(k.procs) != 0 || k.PendingEvents() != 0 {
		t.Fatalf("after Close: live %d, pending %d", len(k.procs), k.PendingEvents())
	}
	c.Broadcast()
	if err := k.RunUntil(k.Now() + 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0, 0, 0, 0}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("callbacks ran %v after Close, want %v", ran, want)
	}
}

// TestWaiterNotAProcess checks that a waiter is neither live nor
// blocked as far as the kernel's process accounting goes, and that
// queuing one twice panics.
func TestWaiterNotAProcess(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	woken := 0
	w := k.NewWaiter(func() { woken++ })
	c.Await(w)
	if len(k.procs) != 0 || len(k.BlockedProcs()) != 0 || c.Waiting() != 1 {
		t.Fatalf("live %d, blocked %v, waiting %d", len(k.procs), k.BlockedProcs(), c.Waiting())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Await of a queued waiter did not panic")
			}
		}()
		c.Await(w)
	}()
	c.Broadcast()
	c.Broadcast()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 1 {
		t.Fatalf("waiter ran %d times, want 1", woken)
	}
	c.Await(w) // runnable again once its callback has run
}

// TestWaiterCallbackHasNoCtx: a waiter's callback runs in kernel
// context, so using a process's Ctx from it panics.
func TestWaiterCallbackHasNoCtx(t *testing.T) {
	k := New(1)
	var pctx *Ctx
	k.Spawn("p", func(ctx *Ctx) { pctx = ctx; ctx.Sleep(time.Hour) })
	var got any
	w := k.NewWaiter(func() {
		defer func() { got = recover() }()
		pctx.Sleep(time.Second)
	})
	if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	w.Wake()
	if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s, _ := got.(string); !strings.Contains(s, "outside its goroutine") {
		t.Fatalf("Ctx use in a waiter callback recovered %v, want the outside-its-goroutine panic", got)
	}
	k.Close()
}

// TestProcSize64 pins a Proc, and so a Waiter, to the 64-byte
// allocation class: a Cond's queue holds one pointer per entry, and
// the admission storm keeps about 900 waiters waiting at once.
func TestProcSize64(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 64 {
		t.Fatalf("Proc is %d bytes, want at most 64", n)
	}
}
