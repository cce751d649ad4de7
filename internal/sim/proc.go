//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
	"time"
)

// Proc is a simulated process: a body whose execution is interleaved
// with the event loop such that exactly one of (kernel, some process)
// runs at any moment. A process runs on a runner, a coroutine it takes
// from the runner pool when first stepped and gives back when its body
// returns.
type Proc struct {
	name string
	// fn is the body; it is dropped when the body starts, so a
	// finished process keeps none of its captures reachable.
	fn func(ctx *Ctx)
	// r is the runner executing p, from its first step until its body
	// returns.
	r *runner
	// slot is p's index in k.procs while it is live; an int32, it
	// shares a word with the flags below, which keeps a Proc in the
	// 64-byte allocation class.
	slot    int32
	done    bool
	blocked bool
	// timedOut reports whether p's last Cond.WaitTimeout (a Waiter's
	// AwaitTimeout) expired. A process waits on one Cond at a time, so
	// this is all the waiter state a Cond needs besides its queue.
	timedOut bool
	// ctx is the handle passed to the body; ctx.k is p's kernel.
	ctx Ctx
	// cb is set, and fn, r and slot unused, when p is the body-less
	// stand-in of a Waiter: step calls cb instead of resuming a runner.
	cb func()
}

// Ctx is the handle a process function uses to interact with virtual
// time. It is only valid inside the process itself.
type Ctx struct {
	k *Kernel
	p *Proc
}

// maxIdleRunners bounds the pool of idle runners. A finished body's
// runner waits in the pool for the next process any kernel steps; past
// the bound it is stopped. The bound matters because a burst of live
// processes would otherwise leave as many idle goroutine stacks
// behind: when the Figure I admission storm's arrivals were processes,
// about 900 of them were parked at once, and with an unbounded pool
// the admission-storm benchmark's peak RSS rose from 55 MB to 170 MB
// (2-vCPU host). The storm runs on Waiters now, but any burst of
// processes would do the same. On the MPI halo
// exchange a bound of 16 captures the whole allocation saving, where
// bounds of 4 and 8 give up a fifth and an eighth of it.
//
// The pool is shared by every kernel in the process rather than owned
// by one, because a program drops kernels without closing them (the
// benchmark never calls Kernel.Close), and each dropped kernel's own
// idle runners would stay parked forever: at 16 per kernel the
// admission storm's set-up ran 26% slower, its garbage collector
// scanning thousands of leftover stacks. Which coroutine runs a body
// is not observable, so sharing the pool cannot reorder any kernel's
// events.
const maxIdleRunners = 16

// idleRunners is the pool; mu serializes the kernels of a -parallel
// sweep.
var idleRunners struct {
	mu   sync.Mutex
	list []*runner
}

// runner is one iter.Pull coroutine that runs process bodies one after
// another: it runs p's body, yields to the kernel, and on its next
// resumption runs whichever process took it meanwhile.
type runner struct {
	// p is the process being run, nil while the runner is idle.
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// unwind is the panic value with which park unwinds a process that
// Kernel.Close stops; the body's recover swallows it.
type unwind struct{}

func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.p.run()
		// Once stopped, yield returns false without switching.
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes p's body, capturing a panic into the kernel's error.
func (p *Proc) run() {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(unwind); !ok && p.ctx.k.err == nil {
				p.ctx.k.err = fmt.Errorf("sim: process %q panicked: %v", p.name, v)
			}
		}
		p.done = true
	}()
	fn := p.fn
	p.fn = nil
	fn(&p.ctx)
}

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. The returned Proc can be used to
// query completion.
func (k *Kernel) Spawn(name string, fn func(ctx *Ctx)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(ctx *Ctx)) *Proc {
	p := &Proc{name: name, fn: fn, slot: int32(len(k.procs))}
	p.ctx = Ctx{k: k, p: p}
	k.procs = append(k.procs, p)
	k.AtFunc(at, PrioNormal, stepProc, k, p)
	return p
}

// stepProc is the prebound wakeup callback shared by every sleep and
// spawn event, so waking a process never allocates a closure.
func stepProc(a0, a1 any) { a0.(*Kernel).step(a1.(*Proc)) }

// step transfers control to process p and waits for it to block or
// finish. It must only be called from the kernel (i.e. from inside an
// event callback). A process that finishes is removed from k.procs and
// its runner returns to the pool. A Waiter's callback runs inline, in
// kernel context.
func (k *Kernel) step(p *Proc) {
	if p.cb != nil {
		if !k.closed {
			p.blocked = false
			p.cb()
		}
		return
	}
	if p.done {
		return
	}
	r := p.r
	if r == nil {
		r = takeRunner()
		r.p, p.r = p, r
	}
	prev := k.cur
	k.cur = p
	p.blocked = false
	r.next()
	k.cur = prev
	if !p.done {
		return
	}
	k.forget(p)
	r.p, p.r = nil, nil
	putRunner(r)
}

// forget swap-removes p from k.procs.
func (k *Kernel) forget(p *Proc) {
	last := len(k.procs) - 1
	moved := k.procs[last]
	k.procs[p.slot] = moved
	moved.slot = p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
}

// takeRunner returns an idle runner, or starts a new one.
func takeRunner() *runner {
	idleRunners.mu.Lock()
	if n := len(idleRunners.list); n > 0 {
		r := idleRunners.list[n-1]
		//lint:ignore determinism the runner pool is shared by every kernel on purpose (see maxIdleRunners): which coroutine runs a body is unobservable, and mu orders the kernels of a -parallel sweep
		idleRunners.list[n-1], idleRunners.list = nil, idleRunners.list[:n-1]
		idleRunners.mu.Unlock()
		return r
	}
	idleRunners.mu.Unlock()
	r := new(runner)
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// putRunner pools an idle runner, or stops it if the pool is full.
func putRunner(r *runner) {
	idleRunners.mu.Lock()
	if len(idleRunners.list) < maxIdleRunners {
		//lint:ignore determinism the runner pool is shared by every kernel on purpose (see maxIdleRunners): which coroutine runs a body is unobservable, and mu orders the kernels of a -parallel sweep
		idleRunners.list = append(idleRunners.list, r)
		idleRunners.mu.Unlock()
		return
	}
	idleRunners.mu.Unlock()
	r.stop()
}

// park suspends the calling process and returns control to the
// kernel. The process resumes when some event calls k.step(p). Must
// be called from inside p. If the kernel is closed instead, park
// unwinds the process.
func (p *Proc) park() {
	p.blocked = true
	if !p.r.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Close releases what the kernel holds: it unwinds every parked
// process, running its body's deferred calls, and drops the event
// queue, delay lines included. Waiters have no coroutine to unwind:
// the queued ones are dropped, and none runs again. A simulation that is finished with its
// kernel calls Close so that the coroutines of processes still blocked
// do not outlive it.
// Close is idempotent and panics when called from inside a process.
func (k *Kernel) Close() {
	if k.cur != nil {
		panic(fmt.Sprintf("sim: Close called from inside process %q", k.cur.name))
	}
	k.closed = true
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		k.forget(p)
		if r := p.r; r != nil {
			// Deferred calls run as p and may use its Ctx; any park
			// among them unwinds again.
			k.cur = p
			r.stop()
			k.cur = nil
			r.p, p.r = nil, nil
		}
		p.fn, p.done = nil, true
	}
	for i := range k.queue {
		e := k.queue[i].e
		if e.line != nil {
			// Every line with callbacks queued has its head here.
			e.line.drop()
		}
		e.index = -1
		e.gen++
		e.fn, e.afn, e.a0, e.a1, e.line = nil, nil, nil, nil, nil
	}
	k.queue, k.free = nil, nil
	k.lined = 0
}

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.k.now }

// Kernel returns the kernel this process runs on.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Sleep suspends the process for d of virtual time. Negative or zero
// durations yield to other events scheduled at the current instant and
// then continue.
func (c *Ctx) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.checkCtx()
	c.k.AtFunc(c.k.now+d, PrioNormal, stepProc, c.k, c.p)
	c.p.park()
}

// SpawnChild spawns another process starting now. It is a convenience
// for process code that launches helpers.
func (c *Ctx) SpawnChild(name string, fn func(ctx *Ctx)) *Proc {
	return c.k.SpawnAt(c.k.now, name, fn)
}

func (c *Ctx) checkCtx() {
	if c.k.cur != c.p {
		panic(fmt.Sprintf("sim: Ctx for process %q used outside its goroutine", c.p.name))
	}
}
