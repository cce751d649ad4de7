package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.At(2*time.Second, PrioNormal, func() { got = append(got, 3) })
	k.At(1*time.Second, PrioNormal, func() { got = append(got, 1) })
	k.At(2*time.Second, PrioNet, func() { got = append(got, 2) })
	k.At(3*time.Second, PrioLate, func() { got = append(got, 5) })
	k.At(3*time.Second, PrioNormal, func() { got = append(got, 4) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestSameTimeSamePrioFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, PrioNormal, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should fail")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := New(1)
	tm := k.After(time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New(1)
	fired := 0
	k.After(time.Second, func() { fired++ })
	k.After(10*time.Second, func() { fired++ })
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(0, PrioNormal, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessSleep(t *testing.T) {
	k := New(1)
	var wake []time.Duration
	k.Spawn("sleeper", func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			ctx.Sleep(time.Second)
			wake = append(wake, ctx.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake = %v, want %v", wake, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	k := New(1)
	var order []string
	mk := func(name string, period time.Duration) {
		k.Spawn(name, func(ctx *Ctx) {
			for i := 0; i < 2; i++ {
				ctx.Sleep(period)
				order = append(order, name)
			}
		})
	}
	mk("a", 10*time.Millisecond)
	mk("b", 15*time.Millisecond)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := New(1)
	var started time.Duration = -1
	k.SpawnAt(42*time.Second, "late", func(ctx *Ctx) { started = ctx.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 42*time.Second {
		t.Fatalf("started at %v, want 42s", started)
	}
}

// TestProcessPanicCaptured pins the error Run returns for a panicking
// process: the exact text, the first panic winning, and the run
// stopping at the panicking event.
func TestProcessPanicCaptured(t *testing.T) {
	k := New(1)
	x := k.Spawn("x", func(ctx *Ctx) {
		ctx.Sleep(time.Second)
		panic("boom")
	})
	k.Spawn("y", func(ctx *Ctx) {
		ctx.Sleep(time.Second)
		panic("second")
	})
	later := false
	k.After(2*time.Second, func() { later = true })
	err := k.Run()
	const want = `sim: process "x" panicked: boom`
	if err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
	if k.Err() != err {
		t.Fatalf("Err() = %v, want the error Run returned", k.Err())
	}
	if !x.Done() || k.Now() != time.Second || later {
		t.Fatalf("after panic: done=%v now=%v later=%v, want done at 1s with later events unrun", x.Done(), k.Now(), later)
	}
	if live := k.LiveProcs(); live != 1 {
		t.Fatalf("live = %d, want 1 (y never resumed)", live)
	}
}

func TestSpawnChild(t *testing.T) {
	k := New(1)
	childRan := false
	k.Spawn("parent", func(ctx *Ctx) {
		ctx.SpawnChild("child", func(c2 *Ctx) {
			c2.Sleep(time.Second)
			childRan = true
		})
		ctx.Sleep(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestBlockedProcs(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("stuck", func(ctx *Ctx) { c.Wait(ctx) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	blocked := k.BlockedProcs()
	if len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", blocked)
	}
	if k.LiveProcs() != 1 {
		t.Fatalf("live = %d, want 1", k.LiveProcs())
	}
}

// TestProcessGoexitEndsRunner pins the one semantic edge of coroutine
// processes: runtime.Goexit inside a process body (t.FailNow in a
// test) passes through iter.Pull and also ends the goroutine that
// called Run, so Run never returns.
func TestProcessGoexitEndsRunner(t *testing.T) {
	k := New(1)
	k.Spawn("quitter", func(ctx *Ctx) { runtime.Goexit() })
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = k.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
}

// TestFinishedProcsForgotten spawns 10k short processes beside a few
// that block: while they run, BlockedProcs stays sorted, and once all
// finish the kernel holds no process at all.
func TestFinishedProcsForgotten(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	const n = 10000
	for i := 0; i < n; i++ {
		d := time.Duration(k.RNG().Intn(1000)) * time.Microsecond
		k.Spawn("short", func(ctx *Ctx) { ctx.Sleep(d) })
	}
	stuck := []string{"w3", "w1", "w4", "w2"}
	for _, name := range stuck {
		k.Spawn(name, func(ctx *Ctx) { c.Wait(ctx) })
	}
	if err := k.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := k.BlockedProcs(); strings.Join(got, " ") != "w1 w2 w3 w4" {
		t.Fatalf("blocked = %v, want [w1 w2 w3 w4]", got)
	}
	if live, held := k.LiveProcs(), len(k.procs); live != len(stuck) || held != len(stuck) {
		t.Fatalf("live = %d, held = %d, want %d", live, held, len(stuck))
	}
	c.Broadcast()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if live, held, blocked := k.LiveProcs(), len(k.procs), k.BlockedProcs(); live != 0 || held != 0 || len(blocked) != 0 {
		t.Fatalf("after all finished: live = %d, held = %d, blocked = %v, want none", live, held, blocked)
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	n := 0
	for i := 1; i <= 10; i++ {
		k.At(time.Duration(i)*time.Second, PrioNormal, func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("processed %d events before stop, want 3", n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("processed %d total, want 10", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New(7)
		var ticks []time.Duration
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(ctx *Ctx) {
				for j := 0; j < 20; j++ {
					d := time.Duration(ctx.RNG().Intn(1000)) * time.Millisecond
					ctx.Sleep(d)
					ticks = append(ticks, ctx.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
