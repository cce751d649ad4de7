// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Simulated processes run on coroutines (iter.Pull): the kernel resumes
// one from an event and the process hands control back when it blocks,
// so exactly one of them runs at a time. With simultaneous events
// ordered by (priority, insertion sequence), every run with the same
// seed is bit-for-bit reproducible.
//
// A coroutine, a runner, outlives the process it runs: when a body
// returns, its runner goes back to a pool and runs the next process
// stepped, so a spawn costs one small allocation instead of a new
// goroutine. The pool is shared by the kernels of the program and holds
// at most a small constant number of runners (maxIdleRunners); past it
// a finished runner is stopped, so a burst of thousands of live
// processes leaves no thousands of idle stacks behind. Reuse changes
// only which goroutine runs a body, never the order in which bodies
// run.
//
// Kernel.Close ends a simulation: it unwinds every process still
// parked (its deferred calls run; Err is not set) and drops the event
// queue. A program that builds many kernels closes each one it is done
// with; a kernel dropped without Close keeps its parked processes'
// goroutines for the life of the program.
//
// Three execution styles coexist:
//
//   - Event callbacks (Kernel.At / Kernel.After, and delay lines) run
//     inline in the kernel's goroutine. Network elements (links,
//     queues, routers) and anything that needs no thread of control
//     of its own (the packet-level UDP blaster, UDP sinks) use these.
//   - Processes (Kernel.Spawn) are coroutines that may block on
//     Ctx.Sleep, Cond.Wait, or Mailbox.Recv. Applications (MPI ranks,
//     the CPU hog) use these. A runtime.Goexit inside a process
//     (t.FailNow in a test) passes through the coroutine and also ends
//     the goroutine that called Run.
//   - Waiters (Kernel.NewWaiter) are callbacks that wait on a Cond
//     (Cond.Await, Cond.AwaitTimeout) or sleep (Waiter.WakeAfter) in a
//     process's place and are woken exactly when, and in the order in
//     which, that process would have been. State machines that only
//     ever wait and sleep use these: MPI nonblocking receives, the
//     per-connection readers of the MPI progress engine, and the
//     admission storm's requests and control RPCs.
//
// The event queue is a 4-ary indexed heap of slots, each holding an
// event's (time, priority, sequence) key inline beside a pointer to
// its pooled event struct, so that a sift compares keys without
// following a pointer, and a node picks its smallest child without a
// data-dependent branch. Priorities must lie in [-128, 127], the byte
// of the key above its 56-bit sequence number; scheduling outside that
// range panics. Scheduling on the steady-state hot path performs no
// allocation (use the AtFunc/AfterFunc variants; the closure-taking
// forms still cost whatever the closure itself captures), and
// Timer.Cancel physically removes the event from the heap, so
// cancel-heavy workloads keep the queue small. Events that are known
// to fire in the order they are scheduled, such as packet arrivals at
// the far end of a fixed-delay link, go on a delay line
// (Kernel.NewLine): a ring-buffer FIFO of which only the head sits in
// the heap, under the same key it would have had as an ordinary event.
// A Broadcast that wakes two or more waiters is such a run of events
// too, all at the current instant and in queue order, so it goes on a
// line the kernel keeps for herds; a lone wakeup stays an ordinary
// event, which is cheaper for one. See docs/performance.md for the
// hot-path inventory.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/spans"
)

// Event priorities. Lower values run first among events scheduled for
// the same instant. A priority must lie in [-128, 127].
const (
	// PrioNet orders packet deliveries ahead of application timers so
	// that data "on the wire" at time t is visible to timers at t.
	PrioNet = -10
	// PrioNormal is the default priority.
	PrioNormal = 0
	// PrioLate runs after everything else at the same instant; trace
	// sampling uses it so samples observe a settled state.
	PrioLate = 10
)

// An event is a scheduled callback. Events are pooled: after firing or
// cancellation the struct returns to the kernel's freelist and its
// generation counter advances, which invalidates any Timer handles
// still pointing at it. Its key lives only in its heap slot.
type event struct {
	index int32 // position in the heap, -1 when not queued
	gen   uint64
	// Exactly one of fn / afn is set. afn receives the two scheduling
	// arguments, letting hot paths schedule prebound functions without
	// allocating a closure.
	fn     func()
	afn    func(a0, a1 any)
	a0, a1 any
	// line is set instead of fn/afn when the event is the armed head
	// of a delay line.
	line  *Line
	owner *Kernel
}

// seqBits is the width of the sequence number in a heap key. The
// priority, offset by 128 to be non-negative, takes the byte above it,
// so that (priority, sequence) orders as one unsigned integer. A kernel
// runs out of sequence numbers after 2^56 schedules, which no
// simulation comes near.
const seqBits = 56

// prioKey returns prio's share of a heap key. A priority outside
// [-128, 127] does not fit its byte and panics.
func prioKey(prio int) uint64 {
	if int(int8(prio)) != prio {
		panic(prioError(prio))
	}
	return uint64(prio+128) << seqBits
}

// prioError is prioKey's panic value: formatting the message only in
// Error keeps prioKey small enough to inline into schedule.
type prioError int

func (p prioError) Error() string {
	return fmt.Sprintf("sim: priority %d outside [-128, 127]", int(p))
}

// A heapSlot is one queued event under its key, kept inline so that a
// sift compares keys without following a pointer: at, then key, which
// holds the priority in its top byte and the sequence number below it.
// Sequence numbers are unique, so no two slots compare equal and the
// pop order depends only on the keys, never on the heap's shape.
type heapSlot struct {
	at  time.Duration
	key uint64
	e   *event
}

// less reports whether a sorts before b, comparing (at, key) as one
// 128-bit unsigned integer: a < b exactly when a - b borrows. Times are
// never negative (schedule refuses the past, and the clock starts at
// zero), so at orders the same as an unsigned number.
func less(a, b *heapSlot) bool {
	return lessBit(a, b) != 0
}

// lessBit is less as 0 or 1, for the branch-free tournament in down.
func lessBit(a, b *heapSlot) uint64 {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// eventHeap is a 4-ary min-heap of slots ordered by (at, key),
// maintaining each event's index for O(log n) removal by handle. A
// 4-ary layout halves the tree depth of a binary heap, and a node's
// four children sit side by side, where down picks the smallest
// without a data-dependent branch.
type eventHeap []heapSlot

func (h *eventHeap) push(at time.Duration, key uint64, e *event) {
	*h = append(*h, heapSlot{at: at, key: key, e: e})
	h.up(len(*h) - 1)
}

// popMin removes the earliest slot and returns its event.
func (h *eventHeap) popMin() *event {
	old := *h
	root := old[0].e
	n := len(old) - 1
	last := old[n]
	old[n] = heapSlot{}
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.down(0)
	}
	root.index = -1
	return root
}

// remove deletes the slot at heap position i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	last := old[n]
	old[n] = heapSlot{}
	*h = old[:n]
	if i < n {
		old[i] = last
		h.down(i)
		h.up(i)
	}
}

func (h eventHeap) up(j int) {
	s := h[j]
	for j > 0 {
		parent := (j - 1) / 4
		if !less(&s, &h[parent]) {
			break
		}
		h[j] = h[parent]
		h[j].e.index = int32(j)
		j = parent
	}
	h[j] = s
	s.e.index = int32(j)
}

// down sifts the slot at j toward the leaves. A node with four
// children finds the smallest by a two-round tournament, (c0, c1) and
// (c2, c3) and then the two winners, so its four loads and first two
// compares do not wait on one another and no branch depends on the
// keys (the index masks only spare bounds checks); only a last node
// with fewer children loops over them.
func (h eventHeap) down(j int) {
	n := len(h)
	s := h[j]
	for {
		first := 4*j + 1
		var min int
		if first+3 < n {
			c := (*[4]heapSlot)(h[first : first+4])
			i01 := lessBit(&c[1], &c[0])
			i23 := 2 + lessBit(&c[3], &c[2])
			i := i01 + lessBit(&c[i23&3], &c[i01&3])*(i23-i01)
			min = first + int(i&3)
		} else if first < n {
			min = first
			for c := first + 1; c < n; c++ {
				if less(&h[c], &h[min]) {
					min = c
				}
			}
		} else {
			break
		}
		if !less(&h[min], &s) {
			break
		}
		h[j] = h[min]
		h[j].e.index = int32(j)
		j = min
	}
	h[j] = s
	s.e.index = int32(j)
}

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now   time.Duration
	queue eventHeap
	free  []*event // recycled event structs
	seq   uint64
	rng   *RNG
	// procs holds the live processes, each at index p.slot; a process
	// is swap-removed when it finishes.
	procs []*Proc
	// cur is the process currently executing, nil when the kernel
	// itself (an event callback) is running.
	cur *Proc
	// lined counts the callbacks queued on delay lines behind their
	// armed heads.
	lined int
	// herd is the delay line of Cond.Broadcast's wakeups, made on the
	// first broadcast that wakes two or more.
	herd    *Line
	stopped bool
	// closed is set by Close; a waiter woken after it does not run.
	closed  bool
	err     error
	ran     uint64
	metrics *metrics.Registry
	tracer  *spans.Tracer
}

// New returns a kernel with its clock at zero and a deterministic RNG
// seeded with seed.
func New(seed int64) *Kernel {
	k := &Kernel{rng: NewRNG(seed)}
	k.metrics = metrics.New(k.Now)
	k.tracer = spans.New(k.Now)
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsRun returns the number of events the kernel has executed. The
// fluid-vs-packet validation ablation uses it to report how much event
// volume the hybrid mode removes.
func (k *Kernel) EventsRun() uint64 { return k.ran }

// Metrics returns the kernel's metrics registry; every subsystem
// built on this kernel registers its series and emits flight-recorder
// events here, with timestamps from the kernel clock.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// Tracer returns the kernel's causal span tracer. It is disabled by
// default (Begin returns inert nil spans); experiment drivers enable
// it before the run when a trace export was requested.
func (k *Kernel) Tracer() *spans.Tracer { return k.tracer }

// RNG returns the kernel's deterministic random number generator.
func (k *Kernel) RNG() *RNG { return k.rng }

// Timer is a handle to a scheduled event that can be cancelled. The
// zero Timer is valid: Pending reports false and Cancel is a no-op.
// Timers are values; copying one copies the handle, and a handle
// outliving its event (fired or cancelled) safely degrades to inert
// because the pooled event's generation has moved on.
type Timer struct {
	e   *event
	gen uint64
}

// Cancel prevents the timer's callback from running, removing the
// event from the queue immediately. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the callback
// was still pending.
func (t Timer) Cancel() bool {
	e := t.e
	if e == nil || e.gen != t.gen || e.index < 0 {
		return false
	}
	k := e.owner
	k.queue.remove(int(e.index))
	e.index = -1
	k.recycle(e)
	return true
}

// Pending reports whether the timer's callback has not yet run or been
// cancelled.
func (t Timer) Pending() bool {
	return t.e != nil && t.e.gen == t.gen
}

// newEvent takes an event struct from the freelist, or allocates one.
func (k *Kernel) newEvent() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{owner: k}
}

// recycle advances the event's generation (invalidating Timer handles)
// and returns it to the freelist.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn, e.afn, e.a0, e.a1, e.line = nil, nil, nil, nil, nil
	k.free = append(k.free, e)
}

func (k *Kernel) schedule(at time.Duration, prio int, fn func(), afn func(a0, a1 any), a0, a1 any) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%v now=%v)", at, k.now))
	}
	key := prioKey(prio)
	k.seq++
	e := k.newEvent()
	e.fn, e.afn, e.a0, e.a1 = fn, afn, a0, a1
	k.queue.push(at, key|k.seq, e)
	return Timer{e: e, gen: e.gen}
}

// At schedules fn to run at absolute virtual time at with the given
// priority. Scheduling in the past (before Now) panics: that is always
// a logic error in a simulation. So does a priority outside
// [-128, 127].
func (k *Kernel) At(at time.Duration, prio int, fn func()) Timer {
	return k.schedule(at, prio, fn, nil, nil, nil)
}

// AtFunc is At for hot paths: fn is called with the two scheduling
// arguments, so callers can pass a prebound package-level function and
// pointer arguments without allocating a closure per event.
func (k *Kernel) AtFunc(at time.Duration, prio int, fn func(a0, a1 any), a0, a1 any) Timer {
	return k.schedule(at, prio, nil, fn, a0, a1)
}

// After schedules fn to run d from now at normal priority.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	return k.schedule(k.now+d, PrioNormal, fn, nil, nil, nil)
}

// AfterPrio schedules fn to run d from now at the given priority.
func (k *Kernel) AfterPrio(d time.Duration, prio int, fn func()) Timer {
	return k.schedule(k.now+d, prio, fn, nil, nil, nil)
}

// AfterFunc is After's closure-free variant; see AtFunc.
func (k *Kernel) AfterFunc(d time.Duration, fn func(a0, a1 any), a0, a1 any) Timer {
	return k.schedule(k.now+d, PrioNormal, nil, fn, a0, a1)
}

// AfterPrioFunc is AfterPrio's closure-free variant; see AtFunc.
func (k *Kernel) AfterPrioFunc(d time.Duration, prio int, fn func(a0, a1 any), a0, a1 any) Timer {
	return k.schedule(k.now+d, prio, nil, fn, a0, a1)
}

// Stop makes Run return after the current event completes. Pending
// events remain queued; Run may be called again to continue.
func (k *Kernel) Stop() { k.stopped = true }

// Err returns the first error captured from a panicking process.
func (k *Kernel) Err() error { return k.err }

// noDeadline makes run drain the queue with no time bound.
const noDeadline time.Duration = -1

// Run processes events until the queue is empty, Stop is called, or a
// process panics. It returns the captured process error, if any.
func (k *Kernel) Run() error {
	return k.run(noDeadline)
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to exactly deadline. It returns the captured process error,
// if any.
func (k *Kernel) RunUntil(deadline time.Duration) error {
	err := k.run(deadline)
	if err == nil && k.now < deadline {
		k.now = deadline
	}
	return err
}

// RunFor runs the simulation for d beyond the current time.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now + d)
}

func (k *Kernel) run(deadline time.Duration) error {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped && k.err == nil {
		at, next := k.queue[0].at, k.queue[0].e
		if deadline >= 0 && at > deadline {
			break
		}
		if at < k.now {
			panic("sim: time went backwards")
		}
		k.now = at
		k.ran++
		if next.line != nil {
			next.line.fire(next)
			continue
		}
		k.queue.popMin()
		// Recycle before invoking: the callback may schedule new
		// events, which can then reuse this struct, and any Timer
		// handle to this event must already read as fired.
		fn, afn, a0, a1 := next.fn, next.afn, next.a0, next.a1
		k.recycle(next)
		if fn != nil {
			fn()
		} else {
			afn(a0, a1)
		}
	}
	return k.err
}

// PendingEvents returns the number of scheduled events, delay-line
// callbacks included. Cancelled timers are removed from the queue
// eagerly, so every queued event is live.
func (k *Kernel) PendingEvents() int { return len(k.queue) + k.lined }

// BlockedProcs returns the names of processes that are blocked (waiting
// on a Cond, Mailbox, or sleep) and not yet finished. Useful in tests
// for detecting unintended deadlock.
func (k *Kernel) BlockedProcs() []string {
	var names []string
	for _, p := range k.procs {
		if p.blocked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// LiveProcs returns the number of spawned processes that have not
// finished.
func (k *Kernel) LiveProcs() int { return len(k.procs) }
