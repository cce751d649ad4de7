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
//
// The items are a ring buffer whose length is a power of two. It
// doubles only when a push finds it full, so once a line has reached
// its deepest backlog, a push or a fire touches one slot and moves
// or allocates nothing.
type Line struct {
	k *Kernel
	// prio is the line's priority as the top byte of a heap key.
	prio uint64
	// items[head], and the n-1 after it modulo len(items), are the
	// queued callbacks, earliest first; items[head] is armed in the
	// kernel's queue.
	items   []lineItem
	head, n int
}

// lineItem is one queued callback with the time and sequence number
// it was pushed with.
type lineItem struct {
	at     time.Duration
	seq    uint64
	fn     func(a0, a1 any)
	a0, a1 any
}

// NewLine returns an empty delay line whose callbacks run at priority
// prio, which must lie in [-128, 127] as for Kernel.At. Kernel.Close
// empties it.
func (k *Kernel) NewLine(prio int) *Line { return &Line{k: k, prio: prioKey(prio)} }

// AfterFunc queues fn(a0, a1) to run d from now, behind every callback
// already on the line. Its time must not be before that of the line's
// last callback, nor d negative; either panics.
func (l *Line) AfterFunc(d time.Duration, fn func(a0, a1 any), a0, a1 any) {
	k := l.k
	at := k.now + d
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%v now=%v)", at, k.now))
	}
	mask := len(l.items) - 1
	if l.n > 0 {
		if last := l.items[(l.head+l.n-1)&mask].at; at < last {
			panic(fmt.Sprintf("sim: delay line out of order (at=%v after %v)", at, last))
		}
	}
	k.seq++
	if l.n == len(l.items) {
		l.grow()
		mask = len(l.items) - 1
	}
	l.items[(l.head+l.n)&mask] = lineItem{at: at, seq: k.seq, fn: fn, a0: a0, a1: a1}
	l.n++
	if l.n == 1 {
		e := k.newEvent()
		e.line = l
		k.queue.push(at, l.prio|k.seq, e)
	} else {
		k.lined++
	}
}

// grow doubles the full ring, unrolling it to start at index 0.
func (l *Line) grow() {
	items := make([]lineItem, max(2*len(l.items), 4))
	c := copy(items, l.items[l.head:])
	copy(items[c:], l.items[:l.head])
	l.items, l.head = items, 0
}

// fire runs the line's head item; e is its event, at the root of the
// kernel's queue. The next item is armed before the callback runs, so
// that the queue is whole while it runs: the root slot takes the next
// item's key and sifts down in place, which costs one sift where a pop
// and a push would cost two.
func (l *Line) fire(e *event) {
	k := l.k
	it := l.items[l.head]
	l.items[l.head] = lineItem{}
	l.head = (l.head + 1) & (len(l.items) - 1)
	l.n--
	if l.n == 0 {
		k.queue.popMin()
		k.recycle(e)
	} else {
		k.lined--
		next := &l.items[l.head]
		root := &k.queue[0]
		root.at, root.key = next.at, l.prio|next.seq
		k.queue.down(0)
	}
	it.fn(it.a0, it.a1)
}

// drop empties the line without running its callbacks; Kernel.Close
// calls it on meeting the line's armed head, which it discards.
func (l *Line) drop() {
	clear(l.items)
	l.items, l.head, l.n = nil, 0, 0
}
