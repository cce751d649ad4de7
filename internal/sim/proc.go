//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process: a coroutine whose execution is
// interleaved with the event loop such that exactly one of (kernel,
// some process) runs at any moment. Control passes between the two
// through iter.Pull, which switches goroutines directly rather than
// through the scheduler.
type Proc struct {
	k    *Kernel
	name string
	// next resumes the process until it parks or finishes; yield,
	// called from inside the process, hands control back. Both are
	// nil once the process has finished.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// slot is p's index in k.procs while it is live; an int32, it
	// shares a word with the flags below, which keeps a Proc in the
	// 64-byte allocation class.
	slot    int32
	done    bool
	blocked bool
	// timedOut reports whether p's last Cond.WaitTimeout expired. A
	// process waits on one Cond at a time, so this is all the waiter
	// state a Cond needs besides its queue.
	timedOut bool
	ctx      Ctx
}

// Ctx is the handle a process function uses to interact with virtual
// time. It is only valid inside the process itself.
type Ctx struct {
	k *Kernel
	p *Proc
}

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. The returned Proc can be used to
// query completion.
func (k *Kernel) Spawn(name string, fn func(ctx *Ctx)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(ctx *Ctx)) *Proc {
	p := &Proc{k: k, name: name, slot: int32(len(k.procs))}
	p.ctx = Ctx{k: k, p: p}
	k.procs = append(k.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if k.err == nil {
					k.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
			p.done = true
		}()
		fn(&p.ctx)
	})
	k.AtFunc(at, PrioNormal, stepProc, k, p)
	return p
}

// stepProc is the prebound wakeup callback shared by every sleep and
// spawn event, so waking a process never allocates a closure.
func stepProc(a0, a1 any) { a0.(*Kernel).step(a1.(*Proc)) }

// step transfers control to process p and waits for it to block or
// finish. It must only be called from the kernel (i.e. from inside an
// event callback). A process that finishes is removed from k.procs.
func (k *Kernel) step(p *Proc) {
	if p.done {
		return
	}
	prev := k.cur
	k.cur = p
	p.blocked = false
	p.next()
	k.cur = prev
	if !p.done {
		return
	}
	// Swap-remove p from k.procs and drop its coroutine, whose closure
	// would otherwise keep fn's captures reachable for as long as p is.
	last := len(k.procs) - 1
	moved := k.procs[last]
	k.procs[p.slot] = moved
	moved.slot = p.slot
	k.procs[last] = nil
	k.procs = k.procs[:last]
	p.next, p.yield = nil, nil
}

// park suspends the calling process and returns control to the
// kernel. The process resumes when some event calls k.step(p). Must
// be called from inside p.
func (p *Proc) park() {
	p.blocked = true
	p.yield(struct{}{})
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.k.now }

// Kernel returns the kernel this process runs on.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Name returns the process name.
func (c *Ctx) Name() string { return c.p.name }

// RNG returns the kernel's deterministic RNG.
func (c *Ctx) RNG() *RNG { return c.k.rng }

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

// Yield reschedules the process behind all events already queued for
// the current instant.
func (c *Ctx) Yield() { c.Sleep(0) }

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
