package sim

import "time"

// Cond is a condition-variable-like primitive for processes and
// Waiters. Waiters of both kinds are woken in one FIFO order. Signal
// and Broadcast may be called from event callbacks or from other
// processes; wakeups are delivered as events at the current instant,
// preserving the single-runner invariant.
//
// As with sync.Cond, a woken process should re-check its predicate:
// state may change between the Signal and the wakeup event running.
type Cond struct {
	k *Kernel
	// waiters[head:] are the queued processes, longest-waiting first.
	// Signal advances head rather than re-slicing, so the backing
	// array is reused instead of regrown.
	waiters []*Proc
	head    int
}

// NewCond returns a Cond bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(ctx *Ctx) {
	ctx.checkCtx()
	c.push(ctx.p)
	ctx.p.park()
}

// WaitTimeout blocks the calling process until woken or until d
// elapses. It reports true if woken by Signal/Broadcast and false on
// timeout.
func (c *Cond) WaitTimeout(ctx *Ctx, d time.Duration) bool {
	ctx.checkCtx()
	if d <= 0 {
		return false
	}
	p := ctx.p
	p.timedOut = false
	c.push(p)
	timer := c.k.AfterFunc(d, condTimeout, c, p)
	p.park()
	timer.Cancel()
	return !p.timedOut
}

// condTimeout is the prebound expiry callback of WaitTimeout and
// AwaitTimeout. A process or waiter that Signal has already taken off
// the queue has its wakeup pending at this instant and is left to it.
func condTimeout(a0, a1 any) {
	c, p := a0.(*Cond), a1.(*Proc)
	if !c.remove(p) {
		return
	}
	p.timedOut = true
	c.k.step(p)
}

// A Waiter is a callback that waits on a Cond in place of a process.
// Cond.Await queues it where Cond.Wait would queue a process, and the
// Signal that takes it off the queue schedules its callback exactly as
// it would have scheduled the process's wakeup: at the current
// instant, at PrioNormal, in the same order. So code that needs no
// thread of control of its own can wait as a callback, and replacing a
// process that only waits on Conds with a Waiter changes no event's
// time, priority or order, nor the kernel's event count.
//
// A Waiter is the body-less stand-in of a process: one queue entry
// like a process, and no coroutine. Its callback runs in kernel
// context, so no Ctx may be used inside it. At any moment a waiter is
// idle, queued on one Cond, or has one wakeup pending; queuing it
// again before its callback runs panics. Waiters are not processes:
// LiveProcs and BlockedProcs do not count them, and Kernel.Close drops
// the queued ones, which then never run.
type Waiter struct{ p Proc }

// NewWaiter returns a waiter on kernel k whose callback is fn.
func (k *Kernel) NewWaiter(fn func()) *Waiter {
	w := &Waiter{}
	w.p.ctx.k, w.p.cb = k, fn
	return w
}

// Wake schedules w's callback at the current instant and PrioNormal,
// where Spawn schedules a new process's first step.
func (w *Waiter) Wake() { w.WakeAfter(0) }

// WakeAfter schedules w's callback d from now at PrioNormal, where
// Ctx.Sleep schedules a sleeping process's wakeup. A negative d counts
// as zero.
func (w *Waiter) WakeAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.hold()
	k := w.p.ctx.k
	k.AtFunc(k.now+d, PrioNormal, stepProc, k, &w.p)
}

// TimedOut reports whether w's last AwaitTimeout expired rather than
// being ended by Signal or Broadcast.
func (w *Waiter) TimedOut() bool { return w.p.timedOut }

// hold marks w as queued or woken, panicking if it already is: a
// waiter queued twice would run twice.
func (w *Waiter) hold() {
	if w.p.blocked {
		panic("sim: Waiter queued while already waiting")
	}
	w.p.blocked = true
}

// Await queues w on c, where a process would call Wait. Signal or
// Broadcast later runs w's callback once.
func (c *Cond) Await(w *Waiter) {
	w.hold()
	c.push(&w.p)
}

// AwaitTimeout queues w on c like Await, but for at most d: if no
// Signal or Broadcast takes w off the queue first, the expiry takes it
// off and runs its callback, and TimedOut then reports true. This is
// WaitTimeout's wait, with the same expiry event. The returned Timer
// is that expiry: a callback woken by Signal cancels it, where
// WaitTimeout's process cancels its own on waking, or the stale expiry
// could later take w off a queue it has joined again. d must be
// positive; WaitTimeout does not wait at all for d <= 0.
func (c *Cond) AwaitTimeout(w *Waiter, d time.Duration) Timer {
	if d <= 0 {
		panic("sim: AwaitTimeout needs a positive timeout")
	}
	w.hold()
	w.p.timedOut = false
	c.push(&w.p)
	return c.k.AfterFunc(d, condTimeout, c, &w.p)
}

// push queues p behind the current waiters. A full backing array with
// consumed slots at its head is compacted in place rather than grown.
// The waiters stay a slice, not a ring as a Line's items are, because
// remove takes a waiter from the middle of the queue.
func (c *Cond) push(p *Proc) {
	if c.head > 0 && len(c.waiters) == cap(c.waiters) {
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.waiters = append(c.waiters, p)
}

// Signal wakes the longest-waiting process, if any. It reports whether
// a waiter was woken.
func (c *Cond) Signal() bool {
	if c.head == len(c.waiters) {
		return false
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters, c.head = c.waiters[:0], 0
	}
	c.k.AtFunc(c.k.now, PrioNormal, stepProc, c.k, p)
	return true
}

// Broadcast wakes all waiting processes, in FIFO order. Two or more
// wakeups go on the kernel's herd line rather than into the event heap
// one by one: each keeps the key, order and event count that Signal
// would have given it, but the heap holds only the first. A lone
// waiter is woken by Signal, as an ordinary event, because one wakeup
// through a line costs more than one through the heap.
func (c *Cond) Broadcast() {
	if c.Waiting() < 2 {
		c.Signal()
		return
	}
	k := c.k
	if k.herd == nil {
		k.herd = k.NewLine(PrioNormal)
	}
	for i := c.head; i < len(c.waiters); i++ {
		k.herd.AfterFunc(0, stepProc, k, c.waiters[i])
	}
	clear(c.waiters[c.head:])
	c.waiters, c.head = c.waiters[:0], 0
}

// Waiting returns the number of processes and Waiters currently
// queued on c.
// A woken process leaves the queue at once, so every queued one is
// still waiting.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// remove takes p off the queue and reports whether it was queued.
func (c *Cond) remove(p *Proc) bool {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] == p {
			last := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[last] = nil
			c.waiters = c.waiters[:last]
			if c.head == last {
				c.waiters, c.head = c.waiters[:0], 0
			}
			return true
		}
	}
	return false
}

// Mutex is a mutual-exclusion lock for processes. Lock blocks the
// calling process until the lock is free; waiters acquire in FIFO
// order. Unlock may be called from any context.
type Mutex struct {
	held bool
	cond *Cond
}

// NewMutex returns an unlocked mutex on kernel k.
func NewMutex(k *Kernel) *Mutex { return &Mutex{cond: NewCond(k)} }

// Lock blocks until the mutex is acquired.
func (m *Mutex) Lock(ctx *Ctx) {
	for m.held {
		m.cond.Wait(ctx)
	}
	m.held = true
}

// Unlock releases the mutex and wakes one waiter. Unlocking an
// unlocked mutex panics.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unlocked Mutex")
	}
	m.held = false
	m.cond.Signal()
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.held }

// Mailbox is an unbounded FIFO queue with blocking receive, the
// simulation analogue of a channel. Any number of processes may block
// in Recv; items are handed out in arrival order to waiters in FIFO
// order. Send never blocks and may be called from event callbacks.
type Mailbox struct {
	k     *Kernel
	items []any
	cond  *Cond
	// closed marks the mailbox as delivering no further items; Recv
	// returns (nil, false) once drained.
	closed bool
}

// NewMailbox returns an empty mailbox bound to kernel k.
func NewMailbox(k *Kernel) *Mailbox {
	return &Mailbox{k: k, cond: NewCond(k)}
}

// Send enqueues v and wakes one waiting receiver.
func (m *Mailbox) Send(v any) {
	if m.closed {
		panic("sim: Send on closed Mailbox")
	}
	m.items = append(m.items, v)
	m.cond.Signal()
}

// Close marks the mailbox closed. Blocked and future receivers get
// (nil, false) once the queue drains.
func (m *Mailbox) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.cond.Broadcast()
}

// Recv blocks until an item is available or the mailbox is closed and
// drained. The second result is false only in the closed-and-drained
// case.
func (m *Mailbox) Recv(ctx *Ctx) (any, bool) {
	for len(m.items) == 0 {
		if m.closed {
			return nil, false
		}
		m.cond.Wait(ctx)
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

// RecvTimeout is Recv with a deadline; ok is false if the timeout
// expired or the mailbox closed before an item arrived.
func (m *Mailbox) RecvTimeout(ctx *Ctx, d time.Duration) (v any, ok bool) {
	deadline := m.k.now + d
	for len(m.items) == 0 {
		if m.closed {
			return nil, false
		}
		remain := deadline - m.k.now
		if remain <= 0 || !m.cond.WaitTimeout(ctx, remain) {
			if len(m.items) > 0 {
				break
			}
			return nil, false
		}
	}
	v = m.items[0]
	m.items = m.items[1:]
	return v, true
}

// TryRecv returns an item if one is queued, without blocking.
func (m *Mailbox) TryRecv() (any, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (m *Mailbox) Len() int { return len(m.items) }
