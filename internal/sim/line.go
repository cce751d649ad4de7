package sim

import (
	"fmt"
	"time"
)

// A Line is a delay line: a FIFO of callbacks at non-decreasing times
// and one priority, of which only the head sits in the event queue.
// Packets propagating along a link are the model case: every one takes
// the link's fixed delay, so they arrive in the order they left, and a
// line keeps the kernel's heap as deep as the number of links in use
// rather than the number of packets on the wire.
//
// A line changes how events are stored, not which run or when. Each
// push draws its sequence number from the kernel at push time, exactly
// as scheduling an ordinary event would, and the head fires with the
// (time, priority, sequence) key its item was pushed with; every item
// runs as one event (EventsRun) and counts as one pending event
// (PendingEvents) while it waits. Line items cannot be cancelled.
type Line struct {
	k    *Kernel
	prio int32
	// items[head:] are the queued callbacks, earliest first; items[head]
	// is armed in the kernel's queue. Pops advance head, and a full
	// backing array with consumed slots at its head is compacted in
	// place rather than grown, as in Cond.
	items []lineItem
	head  int
}

// lineItem is one queued callback with the key it was pushed with.
type lineItem struct {
	at     time.Duration
	seq    uint64
	fn     func(a0, a1 any)
	a0, a1 any
}

// NewLine returns an empty delay line whose callbacks run at priority
// prio. Kernel.Close empties it.
func (k *Kernel) NewLine(prio int) *Line { return &Line{k: k, prio: int32(prio)} }

// AfterFunc queues fn(a0, a1) to run d from now, behind every callback
// already on the line. Its time must not be before that of the line's
// last callback, nor d negative; either panics.
func (l *Line) AfterFunc(d time.Duration, fn func(a0, a1 any), a0, a1 any) {
	k := l.k
	at := k.now + d
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%v now=%v)", at, k.now))
	}
	if n := len(l.items); n > l.head && at < l.items[n-1].at {
		panic(fmt.Sprintf("sim: delay line out of order (at=%v after %v)", at, l.items[n-1].at))
	}
	k.seq++
	if l.head > 0 && len(l.items) == cap(l.items) {
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items = l.items[:n]
		l.head = 0
	}
	l.items = append(l.items, lineItem{at: at, seq: k.seq, fn: fn, a0: a0, a1: a1})
	if len(l.items)-l.head == 1 {
		l.arm()
	} else {
		k.lined++
	}
}

// arm puts the head item into the kernel's queue under its own key.
func (l *Line) arm() {
	it := &l.items[l.head]
	e := l.k.newEvent()
	e.at, e.prio, e.seq = it.at, l.prio, it.seq
	e.line = l
	l.k.queue.push(e)
}

// fire runs the line's head item; e is its event, at the root of the
// kernel's queue. The next item is armed before the callback runs, so
// that the queue is whole while it runs: e takes the next item's key
// and sifts down in place, which costs one sift where a pop and a push
// would cost two.
func (l *Line) fire(e *event) {
	it := l.items[l.head]
	l.items[l.head] = lineItem{}
	l.head++
	if l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
		l.k.queue.popMin()
		l.k.recycle(e)
	} else {
		l.k.lined--
		next := &l.items[l.head]
		e.at, e.seq = next.at, next.seq
		l.k.queue.down(0)
	}
	it.fn(it.a0, it.a1)
}

// drop empties the line without running its callbacks; Kernel.Close
// calls it on meeting the line's armed head, which it discards.
func (l *Line) drop() {
	clear(l.items)
	l.items, l.head = nil, 0
}
