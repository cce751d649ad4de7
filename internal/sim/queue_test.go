package sim

import (
	"fmt"
	"testing"
	"time"
)

// queueModel is the reference event queue: the pending events in a
// slice, of which a pop takes the least (at, prio, seq) by linear scan.
type queueModel struct {
	pending []modelEvent
	seq     uint64
}

type modelEvent struct {
	at   time.Duration
	prio int
	seq  uint64
	id   int
}

func (m *queueModel) add(at time.Duration, prio, id int) {
	m.seq++
	m.pending = append(m.pending, modelEvent{at: at, prio: prio, seq: m.seq, id: id})
}

func (m *queueModel) popMin() modelEvent {
	min := 0
	for i, e := range m.pending {
		p := m.pending[min]
		if e.at < p.at || e.at == p.at && (e.prio < p.prio || e.prio == p.prio && e.seq < p.seq) {
			min = i
		}
	}
	e := m.pending[min]
	m.remove(min)
	return e
}

// remove takes out the i'th pending event; order in the slice does
// not matter.
func (m *queueModel) remove(i int) {
	last := len(m.pending) - 1
	m.pending[i] = m.pending[last]
	m.pending = m.pending[:last]
}

// cancel removes event id and reports whether it was pending.
func (m *queueModel) cancel(id int) bool {
	for i, e := range m.pending {
		if e.id == id {
			m.remove(i)
			return true
		}
	}
	return false
}

// A choiceSource draws the choices of a generated program.
type choiceSource interface {
	// intn returns a choice in [0, n).
	intn(n int) int
}

// rngChoices draws choices from an RNG.
type rngChoices struct{ *RNG }

func (r rngChoices) intn(n int) int { return r.Intn(n) }

// byteChoices draws choices from fuzz input, one byte at a time (two
// for n above 256), and draws 0 once the input is spent.
type byteChoices []byte

func (b *byteChoices) intn(n int) int {
	v := 0
	for w := 1; w < n && len(*b) > 0; w <<= 8 {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// queueDriver runs one generated program on a kernel and on the model
// side by side: every schedule, line push and cancel goes to both, and
// every event the kernel fires must be the one the model pops, at its
// time, with the same count pending after every step.
type queueDriver struct {
	t      testing.TB
	k      *Kernel
	m      queueModel
	src    choiceSource
	lines  []*Line
	prios  []int
	last   []time.Duration // time of each line's latest push
	timers []timerRef
	nextID int
	budget int // callbacks left that schedule more
	fired  int
}

// timerRef is a timer the driver may cancel, with its event's id.
type timerRef struct {
	t  Timer
	id int
}

// queuePrios holds the priorities a program draws from besides a
// uniform one: the ends of the range and the kernel's named ones.
var queuePrios = [...]int{-128, 127, PrioNet, PrioNormal, PrioLate}

func newQueueDriver(t testing.TB, src choiceSource, budget int) *queueDriver {
	d := &queueDriver{t: t, k: New(1), src: src, budget: budget}
	for n := 1 + src.intn(3); n > 0; n-- {
		prio := d.prio()
		d.lines = append(d.lines, d.k.NewLine(prio))
		d.prios = append(d.prios, prio)
		d.last = append(d.last, 0)
	}
	return d
}

func (d *queueDriver) prio() int {
	if i := d.src.intn(len(queuePrios) + 1); i < len(queuePrios) {
		return queuePrios[i]
	}
	return d.src.intn(256) - 128
}

// gap draws a delay: often zero, so that times tie, else up to 100 ms.
func (d *queueDriver) gap() time.Duration {
	switch d.src.intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(d.src.intn(8)) * time.Microsecond
	case 2:
		return time.Duration(d.src.intn(1000)) * time.Microsecond
	default:
		return time.Duration(d.src.intn(100)) * time.Millisecond
	}
}

// schedule adds one event by a random route: At, AtFunc or a push on
// a random line.
func (d *queueDriver) schedule() {
	d.nextID++
	id := d.nextID
	at := d.k.Now() + d.gap()
	if route := d.src.intn(3); route < 2 {
		prio := d.prio()
		d.m.add(at, prio, id)
		var t Timer
		if route == 0 {
			t = d.k.At(at, prio, func() { d.fire(id) })
		} else {
			t = d.k.AtFunc(at, prio, queueFire, d, id)
		}
		d.timers = append(d.timers, timerRef{t, id})
	} else {
		i := d.src.intn(len(d.lines))
		at = max(at, d.last[i])
		d.last[i] = at
		d.m.add(at, d.prios[i], id)
		d.lines[i].AfterFunc(at-d.k.Now(), queueFire, d, id)
	}
	d.check("schedule", id)
}

// cancel cancels a random timer, fired or not, and wants the kernel
// and the model to agree on whether it was pending.
func (d *queueDriver) cancel() {
	if len(d.timers) == 0 {
		return
	}
	r := d.timers[d.src.intn(len(d.timers))]
	pending := r.t.Pending()
	got := r.t.Cancel()
	want := d.m.cancel(r.id)
	if got != want || pending != want {
		d.t.Fatalf("cancel of event %d: Pending %v, Cancel %v, want %v", r.id, pending, got, want)
	}
	d.check("cancel", r.id)
}

func queueFire(a0, a1 any) { a0.(*queueDriver).fire(a1.(int)) }

// fire checks that event id is the model's next, then, while budget
// lasts, schedules its successor and now and then a cancel or a second
// event, as a hold model does.
func (d *queueDriver) fire(id int) {
	d.fired++
	want := d.m.popMin()
	if want.id != id || want.at != d.k.Now() {
		d.t.Fatalf("fire %d: kernel ran event %d at %v, model wants event %d at %v (prio %d, seq %d)",
			d.fired, id, d.k.Now(), want.id, want.at, want.prio, want.seq)
	}
	d.check("fire", id)
	if d.budget <= 0 {
		return
	}
	d.budget--
	d.schedule()
	switch d.src.intn(4) {
	case 0:
		d.cancel()
	case 1:
		d.schedule()
	}
}

func (d *queueDriver) check(step string, id int) {
	if got, want := d.k.PendingEvents(), len(d.m.pending); got != want {
		d.t.Fatalf("after %s of event %d: PendingEvents %d, model holds %d", step, id, got, want)
	}
}

// run schedules a population of events, runs the kernel dry and wants
// the model empty with it.
func (d *queueDriver) run(population int) {
	for i := 0; i < population; i++ {
		d.schedule()
	}
	if err := d.k.Run(); err != nil {
		d.t.Fatal(err)
	}
	if len(d.m.pending) != 0 {
		d.t.Fatalf("kernel drained with %d events left in the model", len(d.m.pending))
	}
	if d.k.EventsRun() != uint64(d.fired) {
		d.t.Fatalf("EventsRun %d, callbacks run %d", d.k.EventsRun(), d.fired)
	}
}

// TestEventQueueDifferential runs generated programs of At and AtFunc
// events over the whole priority range, delay-line pushes and random
// cancels, most of them issued from inside callbacks, against
// queueModel. Populations run from 1 to 4,096 pending events, the
// admission storm's depth. TestLineDifferential cannot stand in for
// it: both of its arms share the kernel's heap.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rngChoices{NewRNG(seed)}
			shift := r.intn(13)
			population := min(1<<shift+r.intn(1<<shift), 4096)
			newQueueDriver(t, r, population+200).run(population)
		})
	}
}

// FuzzEventQueue drives the same programs as TestEventQueueDifferential
// from fuzz input. Its committed corpus runs under go test.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteChoices(data)
		population := 1 + src.intn(300)
		newQueueDriver(t, &src, min(len(data), 4096)).run(population)
	})
}

// TestSchedulePrioOutOfRangePanics pins the key's priority byte: a
// priority outside [-128, 127] panics, in schedule and in NewLine.
func TestSchedulePrioOutOfRangePanics(t *testing.T) {
	k := New(1)
	nop := func() {}
	for _, prio := range []int{-128, 127} {
		k.At(0, prio, nop)
		k.NewLine(prio)
	}
	for _, prio := range []int{-129, 128, 1 << 20, -1 << 40} {
		for _, c := range []struct {
			what string
			call func()
		}{
			{"At", func() { k.At(0, prio, nop) }},
			{"NewLine", func() { k.NewLine(prio) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at priority %d did not panic", c.what, prio)
					}
				}()
				c.call()
			}()
		}
	}
}
