// Package dsrt simulates the Dynamic Soft Real-Time CPU scheduler
// (Chu & Nahrstedt) used by the paper for CPU reservations (§5.5).
//
// Each host has a CPU with unit capacity, shared by tasks under a
// fluid processor-sharing model:
//
//   - A task with a soft-real-time reservation of fraction f receives
//     at least f of the CPU whenever it is runnable ("DSRT works by
//     overriding the Unix scheduler and performing soft real-time
//     scheduling of select processes").
//   - Unreserved runnable tasks share the remaining capacity equally,
//     like a time-sharing Unix scheduler.
//   - The model is work-conserving: capacity left idle by one class is
//     redistributed to the other.
//
// Tasks consume CPU by calling Compute(work): the call blocks the
// simulated process for work/share of virtual time (ComputeThen does
// the same for a sim.Waiter). Applications use this for their own
// computation (e.g. rendering a frame) and the globus-io layer uses it
// for per-byte socket copy costs, which is how CPU contention
// throttles network throughput in Figures 8 and 9.
package dsrt

import (
	"fmt"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// CPU is a host processor (or SMP processor set) shared by tasks.
// Capacity is the number of processors; a single task can use at most
// one processor's worth (1.0) — tasks are not internally parallel.
type CPU struct {
	k        *sim.Kernel
	name     string
	capacity float64
	tasks    []*Task
	// runnable is recompute's scratch list, kept for its backing
	// array.
	runnable []*Task

	mComputations *metrics.Counter
	mDeadlineMiss *metrics.Counter
	rec           *metrics.Recorder
}

// NewCPU returns a single-processor CPU named name on kernel k.
func NewCPU(k *sim.Kernel, name string) *CPU {
	return NewSMP(k, name, 1)
}

// NewSMP returns an n-processor host, like the paper's "8-processor
// multiprocessors" (§3). n tasks run at full speed before any sharing
// begins.
func NewSMP(k *sim.Kernel, name string, n int) *CPU {
	if n < 1 {
		panic("dsrt: SMP needs at least one processor")
	}
	reg := k.Metrics()
	return &CPU{
		k: k, name: name, capacity: float64(n),
		mComputations: reg.Counter("dsrt_computations_total",
			"completed Compute calls", "cpu", name),
		mDeadlineMiss: reg.Counter("dsrt_deadline_misses_total",
			"reserved computations that overran their promised rate", "cpu", name),
		rec: reg.Events(),
	}
}

// Name returns the CPU's name.
func (c *CPU) Name() string { return c.name }

// Capacity returns the number of processors.
func (c *CPU) Capacity() float64 { return c.capacity }

// Task is a schedulable entity (one process's CPU principal).
type Task struct {
	cpu      *CPU
	name     string
	reserved float64 // soft-RT fraction; 0 = best effort
	closed   bool

	// Active computation state.
	computing  bool
	remaining  float64 // work-seconds still owed
	rate       float64 // current share of the CPU
	lastUpdate time.Duration
	timer      sim.Timer
	done       *sim.Cond

	// Deadline accounting for the current Compute call.
	computeStart time.Duration
	computeWork  float64 // work-seconds requested

	usedSeconds float64 // cumulative CPU-seconds consumed
}

// NewTask registers a best-effort task on the CPU.
func (c *CPU) NewTask(name string) *Task {
	t := &Task{cpu: c, name: name, done: sim.NewCond(c.k)}
	c.tasks = append(c.tasks, t)
	return t
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// CPU returns the processor the task is scheduled on.
func (t *Task) CPU() *CPU { return t.cpu }

// Reservation returns the task's current soft-RT fraction.
func (t *Task) Reservation() float64 { return t.reserved }

// SetReservation grants the task a soft-real-time share (0 clears the
// reservation). The sum of reservations across a CPU may not exceed
// 0.95; DSRT keeps headroom so the system stays responsive.
func (t *Task) SetReservation(frac float64) error {
	if t.closed {
		return fmt.Errorf("dsrt: task %q closed", t.name)
	}
	if frac < 0 || frac > 0.95 {
		return fmt.Errorf("dsrt: reservation %.2f out of range [0, 0.95]", frac)
	}
	total := frac
	for _, x := range t.cpu.tasks {
		if x != t && !x.closed {
			total += x.reserved
		}
	}
	if limit := 0.95 * t.cpu.capacity; total > limit {
		return fmt.Errorf("dsrt: admission control: total reservation %.2f would exceed %.2f", total, limit)
	}
	t.reserved = frac
	t.cpu.recompute()
	return nil
}

// Compute blocks the calling process until the task has received work
// seconds of CPU time at its scheduled share.
func (t *Task) Compute(ctx *sim.Ctx, work time.Duration) {
	if t.start(work) {
		t.done.Wait(ctx)
	}
}

// ComputeThen is Compute for a callback: it starts the same
// computation and queues w where Compute would block the process, so
// w runs when Compute would have returned. It reports false, queueing
// nothing, when Compute would return at once (no work, or a closed
// task); the caller then goes on in the same event.
func (t *Task) ComputeThen(work time.Duration, w *sim.Waiter) bool {
	if !t.start(work) {
		return false
	}
	t.done.Await(w)
	return true
}

// start begins a computation of work seconds and reports whether the
// caller must wait for it.
func (t *Task) start(work time.Duration) bool {
	if work <= 0 || t.closed {
		return false
	}
	if t.computing {
		panic(fmt.Sprintf("dsrt: task %q has overlapping Compute calls", t.name))
	}
	t.computing = true
	t.remaining = work.Seconds()
	t.lastUpdate = t.cpu.k.Now()
	t.computeStart = t.lastUpdate
	t.computeWork = t.remaining
	t.cpu.recompute()
	return true
}

// Used returns the task's cumulative CPU-seconds.
func (t *Task) Used() time.Duration {
	t.settle(t.cpu.k.Now())
	return time.Duration(t.usedSeconds * float64(time.Second))
}

// Share returns the task's current scheduled CPU share (0 when idle).
func (t *Task) Share() float64 {
	if !t.computing {
		return 0
	}
	return t.rate
}

// Close deregisters the task. Any in-flight Compute is abandoned (the
// blocked process is released).
func (t *Task) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.timer.Cancel()
	if t.computing {
		t.computing = false
		t.done.Broadcast()
	}
	for i, x := range t.cpu.tasks {
		if x == t {
			t.cpu.tasks = append(t.cpu.tasks[:i], t.cpu.tasks[i+1:]...)
			break
		}
	}
	t.cpu.recompute()
}

// settle charges elapsed time against the task's remaining work.
func (t *Task) settle(now time.Duration) {
	if !t.computing || now <= t.lastUpdate {
		return
	}
	dt := (now - t.lastUpdate).Seconds()
	used := dt * t.rate
	if used > t.remaining {
		used = t.remaining
	}
	t.remaining -= used
	t.usedSeconds += used
	t.lastUpdate = now
}

// recompute settles all tasks, reassigns shares, and reschedules
// completion timers. Called on every scheduling event.
func (c *CPU) recompute() {
	now := c.k.Now()
	runnable := c.runnable[:0]
	for _, t := range c.tasks {
		t.settle(now)
		if t.computing && t.remaining <= 1e-12 {
			// Finished exactly at a boundary; complete below.
			t.finish()
			continue
		}
		if t.computing {
			runnable = append(runnable, t)
		}
	}
	totalRes := 0.0
	unreserved := 0
	for _, t := range runnable {
		if t.reserved > 0 {
			totalRes += t.reserved
		} else {
			unreserved++
		}
	}
	leftover := c.capacity - totalRes
	if leftover < 0 {
		leftover = 0
	}
	for _, t := range runnable {
		switch {
		case t.reserved > 0 && unreserved > 0:
			t.rate = t.reserved
		case t.reserved > 0:
			// Work conservation: reserved tasks split idle capacity
			// in proportion to their reservations.
			t.rate = t.reserved + leftover*(t.reserved/totalRes)
		default:
			t.rate = leftover / float64(unreserved)
		}
		// A single task cannot run faster than one processor.
		if t.rate > 1 {
			t.rate = 1
		}
		t.lastUpdate = now
		t.timer.Cancel()
		if t.rate > 0 {
			eta := time.Duration(t.remaining / t.rate * float64(time.Second))
			if eta < time.Nanosecond {
				eta = time.Nanosecond
			}
			t.timer = c.k.AfterFunc(eta, taskDue, t, nil)
		}
	}
	clear(runnable)
	c.runnable = runnable
}

// taskDue is the prebound timer of a task's computation, due when its
// remaining work is done at its current rate.
func taskDue(a0, _ any) {
	t := a0.(*Task)
	t.settle(t.cpu.k.Now())
	if t.computing && t.remaining <= 1e-9 {
		t.finish()
	}
	// eta was truncated to whole nanoseconds, so the task may still owe
	// a sliver of work; recompute settles it and reschedules it at
	// least 1 ns out.
	t.cpu.recompute()
}

// finish completes the task's current computation.
func (t *Task) finish() {
	t.computing = false
	t.remaining = 0
	t.timer.Cancel()
	t.cpu.mComputations.Inc()
	// A reservation of fraction f promises the work completes within
	// work/f wall time; anything beyond (plus 1% scheduling slack) is
	// a soft-deadline miss — DSRT's QoS violation signal.
	if t.reserved > 0 && t.computeWork > 0 {
		elapsed := (t.cpu.k.Now() - t.computeStart).Seconds()
		allowed := t.computeWork / t.reserved * 1.01
		if elapsed > allowed {
			t.cpu.mDeadlineMiss.Inc()
			t.cpu.rec.Emit(metrics.EvDeadlineMiss, t.name,
				int64(elapsed*float64(time.Second)),
				int64(allowed*float64(time.Second)), 0)
		}
	}
	t.done.Signal()
}

// Load returns the number of currently runnable tasks and the sum of
// active reservations among them.
func (c *CPU) Load() (runnable int, reserved float64) {
	for _, t := range c.tasks {
		if t.computing {
			runnable++
			reserved += t.reserved
		}
	}
	return
}
