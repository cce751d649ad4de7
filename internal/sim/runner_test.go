package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// idleCount is the number of runners in the pool.
func idleCount() int {
	idleRunners.mu.Lock()
	defer idleRunners.mu.Unlock()
	return len(idleRunners.list)
}

// drainPool stops every pooled runner.
func drainPool() {
	for idleCount() > 0 {
		takeRunner().stop()
	}
}

// goroutinesAtMost waits briefly for the goroutine count to fall to
// want, and reports the count it saw last. Stopped runners exit
// synchronously; the grace period only absorbs unrelated runtime
// goroutines winding down.
func goroutinesAtMost(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestSpawnWarmAllocatesOnce pins the point of runner reuse: once the
// pool and the event freelist are warm, a process's whole life (spawn,
// start event, body, finish) allocates only the Proc itself.
func TestSpawnWarmAllocatesOnce(t *testing.T) {
	k := New(1)
	body := func(ctx *Ctx) {}
	for i := 0; i < 8; i++ {
		k.Spawn("warm", body)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Spawn("p", body)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("spawn-run-finish allocates %.1f objects, want 1", allocs)
	}
}

// TestRunnerPoolBounded runs 1,000 processes that are alive at once:
// each needs a runner of its own, but once they finish the pool keeps
// at most maxIdleRunners of them and the rest have exited.
func TestRunnerPoolBounded(t *testing.T) {
	base := runtime.NumGoroutine() - idleCount()
	k := New(1)
	const n = 1000
	for i := 0; i < n; i++ {
		d := time.Duration(k.RNG().Intn(100)) * time.Microsecond
		k.Spawn("live", func(ctx *Ctx) { ctx.Sleep(d) })
	}
	if err := k.RunUntil(k.Now() + time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if live := len(k.procs); live < n/2 {
		t.Fatalf("only %d processes alive at once, want a crowd", live)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if idle := idleCount(); idle > maxIdleRunners {
		t.Fatalf("pool holds %d runners, bound is %d", idle, maxIdleRunners)
	}
	if got := goroutinesAtMost(base + maxIdleRunners); got > base+maxIdleRunners {
		t.Fatalf("%d goroutines after all finished, want at most %d + %d", got, base, maxIdleRunners)
	}
}

// TestCloseUnwindsParked parks processes in every blocking primitive,
// closes the kernel, and checks that each body's deferred calls ran,
// that unwinding is not reported as an error, and that every
// goroutine the kernel started is gone or idle in the pool.
func TestCloseUnwindsParked(t *testing.T) {
	base := runtime.NumGoroutine() - idleCount()
	k := New(1)
	c := NewCond(k)
	box := NewMailbox(k)
	mu := NewMutex(k)
	var unwound []string
	park := map[string]func(ctx *Ctx){
		"sleep":       func(ctx *Ctx) { ctx.Sleep(time.Hour) },
		"wait":        func(ctx *Ctx) { c.Wait(ctx) },
		"waittimeout": func(ctx *Ctx) { c.WaitTimeout(ctx, time.Hour) },
		"recv":        func(ctx *Ctx) { box.Recv(ctx) },
		"lock":        func(ctx *Ctx) { mu.Lock(ctx) },
		// A deferred call that blocks again is unwound again.
		"defersleep": func(ctx *Ctx) {
			defer ctx.Sleep(time.Second)
			ctx.Sleep(time.Hour)
		},
	}
	names := []string{"sleep", "wait", "waittimeout", "recv", "lock", "defersleep"}
	k.Spawn("holder", func(ctx *Ctx) {
		mu.Lock(ctx)
		ctx.Sleep(time.Hour)
	})
	procs := make([]*Proc, len(names))
	for i, name := range names {
		name, body := name, park[name]
		procs[i] = k.Spawn(name, func(ctx *Ctx) {
			defer func() { unwound = append(unwound, name) }()
			body(ctx)
			t.Errorf("%s: body went on past its blocking call", name)
		})
	}
	notStarted := k.SpawnAt(time.Hour, "later", func(ctx *Ctx) { t.Error("never-started process ran") })
	tm := k.After(time.Minute, func() { t.Error("event ran after Close") })
	if err := k.RunUntil(k.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := len(k.BlockedProcs()); got != len(names)+1 {
		t.Fatalf("%d processes blocked, want %d", got, len(names)+1)
	}
	k.Close()
	if err := k.err; err != nil {
		t.Fatalf("Close set Err: %v", err)
	}
	if len(unwound) != len(names) {
		t.Fatalf("deferred calls ran for %v, want all of %v", unwound, names)
	}
	for _, p := range append(procs, notStarted) {
		if !p.done {
			t.Errorf("process %q not done after Close", p.name)
		}
	}
	if len(k.procs) != 0 || k.PendingEvents() != 0 {
		t.Fatalf("after Close: live %d, pending %d, want none", len(k.procs), k.PendingEvents())
	}
	if tm.Pending() || tm.Cancel() {
		t.Fatal("timer still pending after Close")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := base + idleCount(); goroutinesAtMost(want) > want {
		t.Fatalf("%d goroutines after Close, want %d (%d idle in the pool)", runtime.NumGoroutine(), want, idleCount())
	}
}

// TestCloseIdempotent checks that a second Close is a no-op and that
// Close from inside a process panics, which the process reports.
func TestCloseIdempotent(t *testing.T) {
	k := New(1)
	k.Spawn("closer", func(ctx *Ctx) { ctx.Kernel().Close() })
	k.Spawn("parked", func(ctx *Ctx) { ctx.Sleep(time.Hour) })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "Close called from inside process") {
		t.Fatalf("Run = %v, want a Close-inside-process panic", err)
	}
	k.Close()
	k.Close()
	if len(k.procs) != 0 || k.PendingEvents() != 0 {
		t.Fatalf("after Close: live %d, pending %d", len(k.procs), k.PendingEvents())
	}
}

// TestPanickingBodyRunnerReused: a body that panics records the error
// and still hands its runner back, and the next process runs on it.
func TestPanickingBodyRunnerReused(t *testing.T) {
	drainPool()
	k := New(1)
	var r0, r1 *runner
	k.Spawn("boom", func(ctx *Ctx) {
		r0 = ctx.p.r
		panic("boom")
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want the panic", err)
	}
	if n := idleCount(); n != 1 {
		t.Fatalf("pool holds %d runners after the panic, want 1", n)
	}
	k.err = nil
	p := k.Spawn("next", func(ctx *Ctx) {
		r1 = ctx.p.r
		ctx.Sleep(time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.done || r1 != r0 {
		t.Fatalf("next process done=%v, ran on the panicked body's runner=%v", p.done, r1 == r0)
	}
}
