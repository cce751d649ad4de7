package dsrt

import (
	"math"
	"testing"
	"time"

	"mpichgq/internal/sim"
)

func almost(a, b time.Duration, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestSoloTaskFullSpeed(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	task := cpu.NewTask("app")
	var done time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		task.Compute(ctx, time.Second)
		done = ctx.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, time.Second, time.Millisecond) {
		t.Fatalf("solo task finished at %v, want 1s", done)
	}
}

func TestTwoTasksFairShare(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		task := cpu.NewTask("t")
		k.Spawn("t", func(ctx *sim.Ctx) {
			task.Compute(ctx, time.Second)
			done[i] = ctx.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two equal tasks, each needing 1 CPU-second at share 0.5: both
	// finish at ~2 s.
	for i, d := range done {
		if !almost(d, 2*time.Second, 10*time.Millisecond) {
			t.Fatalf("task %d finished at %v, want ~2s", i, d)
		}
	}
}

func TestReservationProtectsTask(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	app := cpu.NewTask("app")
	hog := cpu.NewTask("hog")
	if err := app.SetReservation(0.9); err != nil {
		t.Fatal(err)
	}
	var appDone time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		app.Compute(ctx, 900*time.Millisecond)
		appDone = ctx.Now()
	})
	k.Spawn("hog", func(ctx *sim.Ctx) {
		for ctx.Now() < 5*time.Second {
			hog.Compute(ctx, 10*time.Millisecond)
		}
	})
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// At 0.9 share, 0.9 CPU-seconds takes ~1 s despite the hog.
	if !almost(appDone, time.Second, 50*time.Millisecond) {
		t.Fatalf("reserved task finished at %v, want ~1s", appDone)
	}
}

func TestContentionWithoutReservation(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	app := cpu.NewTask("app")
	hog := cpu.NewTask("hog")
	var appDone time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		app.Compute(ctx, 900*time.Millisecond)
		appDone = ctx.Now()
	})
	k.Spawn("hog", func(ctx *sim.Ctx) {
		for ctx.Now() < 5*time.Second {
			hog.Compute(ctx, 10*time.Millisecond)
		}
	})
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Fair share 0.5: 0.9 CPU-seconds takes ~1.8 s.
	if !almost(appDone, 1800*time.Millisecond, 100*time.Millisecond) {
		t.Fatalf("contended task finished at %v, want ~1.8s", appDone)
	}
}

func TestAdmissionControl(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	b := cpu.NewTask("b")
	if err := a.SetReservation(0.6); err != nil {
		t.Fatal(err)
	}
	if err := b.SetReservation(0.5); err == nil {
		t.Fatal("0.6+0.5 should be rejected")
	}
	if err := b.SetReservation(0.3); err != nil {
		t.Fatalf("0.6+0.3 should be admitted: %v", err)
	}
	if err := a.SetReservation(0.96); err == nil {
		t.Fatal("reservation above 0.95 should be rejected")
	}
	if err := a.SetReservation(0); err != nil {
		t.Fatal(err)
	}
	if a.Reservation() != 0 {
		t.Fatal("clearing reservation failed")
	}
}

func TestWorkConservationReservedAlone(t *testing.T) {
	// A reserved task alone on the CPU gets the whole CPU, not just
	// its reservation.
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	task := cpu.NewTask("app")
	task.SetReservation(0.5)
	var done time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		task.Compute(ctx, time.Second)
		done = ctx.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, time.Second, 10*time.Millisecond) {
		t.Fatalf("reserved solo task finished at %v, want 1s (work conserving)", done)
	}
}

func TestMidComputationReservation(t *testing.T) {
	// Reservation granted halfway through a computation speeds up the
	// remainder (the Figure 8 scenario).
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	app := cpu.NewTask("app")
	hog := cpu.NewTask("hog")
	var appDone time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		app.Compute(ctx, time.Second)
		appDone = ctx.Now()
	})
	k.Spawn("hog", func(ctx *sim.Ctx) {
		for ctx.Now() < 10*time.Second {
			hog.Compute(ctx, 10*time.Millisecond)
		}
	})
	k.After(time.Second, func() {
		if err := app.SetReservation(0.9); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// First second at share 0.5 → 0.5 done; remaining 0.5 at 0.9 →
	// ~0.556 s more. Total ~1.556 s.
	if !almost(appDone, 1556*time.Millisecond, 60*time.Millisecond) {
		t.Fatalf("finished at %v, want ~1.556s", appDone)
	}
}

func TestUsedAccounting(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	b := cpu.NewTask("b")
	k.Spawn("a", func(ctx *sim.Ctx) { a.Compute(ctx, 500*time.Millisecond) })
	k.Spawn("b", func(ctx *sim.Ctx) { b.Compute(ctx, 500*time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(a.Used(), 500*time.Millisecond, time.Millisecond) {
		t.Fatalf("a used %v, want 500ms", a.Used())
	}
	if !almost(b.Used(), 500*time.Millisecond, time.Millisecond) {
		t.Fatalf("b used %v, want 500ms", b.Used())
	}
}

func TestCloseReleasesBlockedCompute(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	hog := cpu.NewTask("hog")
	returned := false
	k.Spawn("a", func(ctx *sim.Ctx) {
		a.Compute(ctx, time.Hour)
		returned = true
	})
	k.Spawn("hog", func(ctx *sim.Ctx) {
		for ctx.Now() < 2*time.Second {
			hog.Compute(ctx, 10*time.Millisecond)
		}
	})
	k.After(time.Second, func() { a.Close() })
	if err := k.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("Compute did not return after Close")
	}
}

func TestCloseFreesShareForOthers(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	b := cpu.NewTask("b")
	var bDone time.Duration
	k.Spawn("a", func(ctx *sim.Ctx) { a.Compute(ctx, time.Hour) })
	k.Spawn("b", func(ctx *sim.Ctx) {
		b.Compute(ctx, time.Second)
		bDone = ctx.Now()
	})
	k.After(time.Second, func() { a.Close() })
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// First second at 0.5 → 0.5 done; then full speed → 0.5 s more.
	if !almost(bDone, 1500*time.Millisecond, 20*time.Millisecond) {
		t.Fatalf("b finished at %v, want ~1.5s", bDone)
	}
}

func TestOverlappingComputePanics(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	k.Spawn("p1", func(ctx *sim.Ctx) { a.Compute(ctx, time.Second) })
	k.Spawn("p2", func(ctx *sim.Ctx) { a.Compute(ctx, time.Second) })
	if err := k.Run(); err == nil {
		t.Fatal("expected captured panic for overlapping Compute")
	}
}

func TestShareAndLoad(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	a := cpu.NewTask("a")
	b := cpu.NewTask("b")
	a.SetReservation(0.7)
	k.Spawn("a", func(ctx *sim.Ctx) { a.Compute(ctx, 10*time.Second) })
	k.Spawn("b", func(ctx *sim.Ctx) { b.Compute(ctx, 10*time.Second) })
	k.After(time.Second, func() {
		if math.Abs(a.Share()-0.7) > 1e-9 {
			t.Errorf("a share = %v, want 0.7", a.Share())
		}
		if math.Abs(b.Share()-0.3) > 1e-9 {
			t.Errorf("b share = %v, want 0.3", b.Share())
		}
		n, res := cpu.Load()
		if n != 2 || math.Abs(res-0.7) > 1e-9 {
			t.Errorf("load = %d/%v, want 2/0.7", n, res)
		}
	})
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestManyTasksEqualShares(t *testing.T) {
	k := sim.New(1)
	cpu := NewCPU(k, "host")
	const n = 5
	var done [n]time.Duration
	for i := 0; i < n; i++ {
		i := i
		task := cpu.NewTask("t")
		k.Spawn("t", func(ctx *sim.Ctx) {
			task.Compute(ctx, time.Second)
			done[i] = ctx.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !almost(d, n*time.Second, 20*time.Millisecond) {
			t.Fatalf("task %d finished at %v, want ~%ds", i, d, n)
		}
	}
}

func TestSMPParallelTasks(t *testing.T) {
	// 4 tasks on a 4-way SMP: all run at full speed simultaneously.
	k := sim.New(1)
	cpu := NewSMP(k, "smp", 4)
	if cpu.Capacity() != 4 {
		t.Fatalf("capacity = %v", cpu.Capacity())
	}
	var done [4]time.Duration
	for i := 0; i < 4; i++ {
		i := i
		task := cpu.NewTask("t")
		k.Spawn("t", func(ctx *sim.Ctx) {
			task.Compute(ctx, time.Second)
			done[i] = ctx.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !almost(d, time.Second, 5*time.Millisecond) {
			t.Fatalf("task %d finished at %v, want 1s (no sharing on SMP)", i, d)
		}
	}
}

func TestSMPOversubscribed(t *testing.T) {
	// 8 tasks on a 4-way SMP: each gets half a processor.
	k := sim.New(1)
	cpu := NewSMP(k, "smp", 4)
	var done [8]time.Duration
	for i := 0; i < 8; i++ {
		i := i
		task := cpu.NewTask("t")
		k.Spawn("t", func(ctx *sim.Ctx) {
			task.Compute(ctx, time.Second)
			done[i] = ctx.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !almost(d, 2*time.Second, 20*time.Millisecond) {
			t.Fatalf("task %d finished at %v, want ~2s", i, d)
		}
	}
}

func TestSMPSingleTaskCappedAtOneProcessor(t *testing.T) {
	// One task on a big SMP still runs at 1x, not Nx.
	k := sim.New(1)
	cpu := NewSMP(k, "smp", 8)
	task := cpu.NewTask("solo")
	var done time.Duration
	k.Spawn("solo", func(ctx *sim.Ctx) {
		task.Compute(ctx, time.Second)
		done = ctx.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(done, time.Second, time.Millisecond) {
		t.Fatalf("solo task on SMP finished at %v, want exactly 1s", done)
	}
}

func TestSMPAdmissionScalesWithCapacity(t *testing.T) {
	k := sim.New(1)
	cpu := NewSMP(k, "smp", 2)
	a, b := cpu.NewTask("a"), cpu.NewTask("b")
	// 0.9 + 0.9 = 1.8 <= 0.95*2.
	if err := a.SetReservation(0.9); err != nil {
		t.Fatal(err)
	}
	if err := b.SetReservation(0.9); err != nil {
		t.Fatal(err)
	}
	c := cpu.NewTask("c")
	if err := c.SetReservation(0.2); err == nil {
		t.Fatal("1.8+0.2 > 1.9 should be rejected")
	}
}

// Completion timers fire at an eta truncated to whole nanoseconds, so
// a task can reach its timer still owing a sliver of work. Such a
// task must be rescheduled, not stranded with its process blocked
// and the kernel's queue empty (1915 ns and 1932 ns did that once).
func TestComputeCompletesAtNanosecondRemainders(t *testing.T) {
	check := func(work time.Duration) {
		t.Helper()
		k := sim.New(1)
		task := NewCPU(k, "host").NewTask("app")
		returned := false
		var at time.Duration
		k.Spawn("app", func(ctx *sim.Ctx) {
			task.Compute(ctx, work)
			returned, at = true, ctx.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !returned {
			t.Fatalf("Compute(%v) never returned; clock stopped at %v", work, k.Now())
		}
		if !almost(at, work, time.Nanosecond) {
			t.Fatalf("Compute(%v) returned at %v", work, at)
		}
	}
	for w := time.Nanosecond; w <= 4*time.Microsecond; w++ {
		check(w)
	}
	// Jittered millisecond computations, back to back on one task:
	// the shape of a compute phase in an MPI iteration loop.
	k := sim.New(1)
	task := NewCPU(k, "host").NewTask("app")
	const n = 2000
	var want time.Duration
	works := make([]time.Duration, n)
	for i := range works {
		works[i] = time.Millisecond + time.Duration(i*7919%400000) - 200*time.Microsecond
		want += works[i]
	}
	finished := 0
	k.Spawn("app", func(ctx *sim.Ctx) {
		for _, w := range works {
			task.Compute(ctx, w)
			finished++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != n {
		t.Fatalf("%d of %d computations finished; clock stopped at %v", finished, n, k.Now())
	}
	if !almost(k.Now(), want, n*time.Nanosecond) {
		t.Fatalf("back-to-back computations ended at %v, want %v", k.Now(), want)
	}
}
