package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// lineWorld runs one generated program of delay-line pushes, ordinary
// events, cancellations and process sleeps. With lined unset every
// line push is scheduled as an ordinary event at the line's priority
// instead, which is what a delay line must be indistinguishable from.
type lineWorld struct {
	k      *Kernel
	lined  bool
	lines  []*Line
	prios  []int
	last   []time.Duration // time of each line's latest push
	timers []Timer
	budget int
	nextID int
	trace  strings.Builder
}

var linePrios = [...]int{PrioNet, PrioNormal, prioLate}

func newLineWorld(seed int64, lined bool) *lineWorld {
	w := &lineWorld{k: New(seed), lined: lined, budget: 400}
	n := 1 + w.k.RNG().Intn(4)
	for i := 0; i < n; i++ {
		prio := linePrios[w.k.RNG().Intn(len(linePrios))]
		w.prios = append(w.prios, prio)
		w.last = append(w.last, 0)
		if lined {
			w.lines = append(w.lines, w.k.NewLine(prio))
		}
	}
	return w
}

// record writes one trace entry together with the kernel's counters,
// so both are compared after every event.
func (w *lineWorld) record(what string, id int) {
	fmt.Fprintf(&w.trace, "%d %s%d pending=%d ran=%d\n", w.k.Now(), what, id, w.k.PendingEvents(), w.k.EventsRun())
}

// gap draws a short delay, often zero so that timestamps tie.
func (w *lineWorld) gap() time.Duration {
	return time.Duration(w.k.RNG().Intn(4)) * time.Millisecond
}

// push queues item id on line i, no earlier than the line's last push.
func (w *lineWorld) push(i int) {
	w.nextID++
	at := w.k.Now() + w.gap()
	if at < w.last[i] {
		at = w.last[i] + time.Duration(w.k.RNG().Intn(2))*time.Millisecond
	}
	w.last[i] = at
	d := at - w.k.Now()
	if w.lined {
		w.lines[i].AfterFunc(d, lineWorldFire, w, w.nextID)
	} else {
		w.k.AfterPrioFunc(d, w.prios[i], lineWorldFire, w, w.nextID)
	}
}

// act spends one unit of budget on a random action.
func (w *lineWorld) act() {
	if w.budget <= 0 {
		return
	}
	w.budget--
	r := w.k.RNG()
	switch r.Intn(6) {
	case 0, 1:
		w.push(r.Intn(len(w.last)))
	case 2:
		w.nextID++
		prio := linePrios[r.Intn(len(linePrios))]
		w.timers = append(w.timers, w.k.AtFunc(w.k.Now()+w.gap(), prio, lineWorldFire, w, w.nextID))
	case 3:
		if len(w.timers) > 0 {
			j := r.Intn(len(w.timers))
			w.record("cancel", j)
			w.timers[j].Cancel()
		}
	case 4:
		w.nextID++
		id := w.nextID
		w.k.Spawn("p", func(ctx *Ctx) {
			for n := 1 + r.Intn(4); n > 0; n-- {
				ctx.Sleep(w.gap())
				w.record("proc", id)
				w.act()
			}
		})
	case 5:
		w.act()
		w.act()
	}
}

// lineAbort is the panic value with which a callback now and then
// abandons its event; the driver recovers it and runs on, so a line
// must already have armed its next item when a callback runs.
type lineAbort struct{}

func lineWorldFire(a0, a1 any) {
	w := a0.(*lineWorld)
	w.record("item", a1.(int))
	w.act()
	if w.k.RNG().Intn(20) == 0 {
		panic(lineAbort{})
	}
}

func (w *lineWorld) run(t *testing.T) string {
	for i := 0; i < 6; i++ {
		w.act()
	}
	for !w.runRecovering(t) {
		w.record("abort", 0)
	}
	w.record("end", 0)
	return w.trace.String()
}

// runRecovering runs the kernel and reports whether it drained, false
// when a callback aborted.
func (w *lineWorld) runRecovering(t *testing.T) (drained bool) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(lineAbort); !ok {
				panic(v)
			}
		}
	}()
	if err := w.k.Run(); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestLineDifferential runs generated programs twice, once with their
// line pushes on delay lines and once as ordinary events, and requires
// the same execution order, times, pending-event counts and event
// counts after every event.
func TestLineDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		want := newLineWorld(seed, false).run(t)
		got := newLineWorld(seed, true).run(t)
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("seed %d: traces diverge at entry %d:\nline:     %s\nordinary: %s", seed, i, gl[i], wl[min(i, len(wl)-1)])
				}
			}
			t.Fatalf("seed %d: line trace is a prefix of the ordinary one", seed)
		}
	}
}

func TestLineOutOfOrderPanics(t *testing.T) {
	k := New(1)
	l := k.NewLine(PrioNet)
	nop := func(a0, a1 any) {}
	l.AfterFunc(2*time.Millisecond, nop, nil, nil)
	l.AfterFunc(2*time.Millisecond, nop, nil, nil) // a tie is in order
	defer func() {
		if recover() == nil {
			t.Fatal("pushing an item earlier than the line's last did not panic")
		}
	}()
	l.AfterFunc(time.Millisecond, nop, nil, nil)
}

func TestLineClose(t *testing.T) {
	k := New(1)
	l := k.NewLine(PrioNet)
	payload := new(int)
	fired := 0
	count := func(a0, a1 any) { fired++ }
	for i := 0; i < 5; i++ {
		l.AfterFunc(time.Duration(i)*time.Millisecond, count, payload, nil)
	}
	if err := k.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || k.PendingEvents() != 3 {
		t.Fatalf("before Close: fired=%d pending=%d, want 2/3", fired, k.PendingEvents())
	}
	k.Close()
	if k.PendingEvents() != 0 || cap(l.items) != 0 {
		t.Fatalf("after Close: pending=%d cap=%d, want an empty line", k.PendingEvents(), cap(l.items))
	}
	if err := k.Run(); err != nil || fired != 2 {
		t.Fatalf("after Close: Run = %v, fired = %d, want nothing to run", err, fired)
	}
}

// TestLineZeroAlloc pins the ring: once a line has reached its depth,
// pushing an item and firing one allocates nothing, however many
// times the ring wraps.
func TestLineZeroAlloc(t *testing.T) {
	k := New(1)
	l := k.NewLine(PrioNet)
	nop := func(a0, a1 any) {}
	// One push a microsecond, each firing 5 µs later: four items wait
	// on the line after every step, in a ring of eight.
	step := func() {
		l.AfterFunc(5*time.Microsecond, nop, nil, nil)
		if err := k.RunUntil(k.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("a line push and fire allocate %.1f objects, want 0", allocs)
	}
	if k.PendingEvents() != 4 || len(l.items) != 8 {
		t.Fatalf("pending %d in a ring of %d, want 4 in 8", k.PendingEvents(), len(l.items))
	}
}
