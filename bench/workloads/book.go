package workloads

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Book is the GARA book: one GARNET testbed whose kernel never runs.
// Set-up fills the book with live admitted advance reservations; the
// timed phase then makes calls public GARA calls against it: 30%
// Gara.Probe, 30% Gara.Reserve, 30% Reservation.Cancel and 10%
// Reservation.Modify. Flows run between three host pairs that cross
// the bottleneck link, two forward and one in reverse; starts are
// uniform over one hour, durations 1 to 10 minutes and rates 50 to
// 1550 Kb/s.
func Book(seed int64, live, calls int) *Workload {
	return &Workload{
		Name:   "gara-book",
		Points: 1,
		New:    func(int) (Point, error) { return newBookPoint(seed, live, calls) },
	}
}

// The public calls the book's operations make.
const (
	CallProbe   = "gara.Gara.Probe"
	CallReserve = "gara.Gara.Reserve"
	CallCancel  = "gara.Reservation.Cancel"
	CallModify  = "gara.Reservation.Modify"
)

// bookCall is one pre-generated call: spec for a probe or a reserve,
// rate for a modify, and pick choosing the target of a cancel or a
// modify among the live reservations at call time.
type bookCall struct {
	kind string
	spec gara.Spec
	rate units.BitRate
	pick uint64
}

// bookDecision is what one call did, for Collect to check against
// the model: the reservation it made or touched, the spec it asked
// for, and whether GARA admitted it.
type bookDecision struct {
	kind string
	id   uint64
	spec gara.Spec
	ok   bool
}

type bookPoint struct {
	tb        *garnet.Testbed
	live      []*gara.Reservation
	calls     []bookCall
	decisions []bookDecision // the fill's and the timed calls', in order
	fill      int            // how many decisions the fill made
}

func newBookPoint(seed int64, live, calls int) (*bookPoint, error) {
	tb := garnet.New(seed)
	rng := sim.NewRNG(seed)
	pairs := [][2]*netsim.Node{
		{tb.PremSrc, tb.PremDst},
		{tb.CompSrc, tb.CompDst},
		{tb.PremDst, tb.PremSrc},
	}
	rate := func() units.BitRate { return units.BitRate(50+rng.Intn(1501)) * units.Kbps }
	spec := func() gara.Spec {
		pr := pairs[rng.Intn(len(pairs))]
		return gara.Spec{
			Type:      gara.ResourceNetwork,
			Start:     time.Duration(rng.Int63() % int64(time.Hour)),
			Duration:  time.Minute + time.Duration(rng.Int63()%int64(9*time.Minute)),
			Flow:      diffserv.MatchHostPair(pr[0].Addr(), pr[1].Addr(), netsim.ProtoTCP),
			Bandwidth: rate(),
		}
	}
	p := &bookPoint{tb: tb}
	for attempts := 0; len(p.live) < live; attempts++ {
		if attempts > 4*live {
			return nil, fmt.Errorf("gara-book: only %d of %d reservations admitted in %d attempts", len(p.live), live, attempts)
		}
		p.reserve(spec())
	}
	p.fill = len(p.decisions)
	// Room for every timed call's decision, so that bookkeeping
	// allocates nothing while the calls are timed.
	p.decisions = append(make([]bookDecision, 0, p.fill+calls), p.decisions...)
	p.calls = make([]bookCall, calls)
	for i := range p.calls {
		c := &p.calls[i]
		switch d := rng.Intn(10); {
		case d < 3:
			c.kind, c.spec = CallProbe, spec()
		case d < 6:
			c.kind, c.spec = CallReserve, spec()
		case d < 9:
			c.kind, c.pick = CallCancel, rng.Uint64()
		default:
			c.kind, c.pick, c.rate = CallModify, rng.Uint64(), rate()
		}
	}
	return p, nil
}

func (p *bookPoint) reserve(spec gara.Spec) {
	d := bookDecision{kind: CallReserve, spec: spec}
	if r, err := p.tb.Gara.Reserve(spec); err == nil {
		p.live = append(p.live, r)
		d.id, d.ok = r.ID(), true
	}
	p.decisions = append(p.decisions, d)
}

func (p *bookPoint) Ops() int { return len(p.calls) }

// Op makes call j. A refused reservation or modification is an
// outcome, not a failure; Collect checks it.
func (p *bookPoint) Op(j int) (string, error) {
	c := &p.calls[j]
	switch c.kind {
	case CallProbe:
		ok := p.tb.Gara.Probe(c.spec) == nil
		p.decisions = append(p.decisions, bookDecision{kind: c.kind, spec: c.spec, ok: ok})
	case CallReserve:
		p.reserve(c.spec)
	case CallCancel, CallModify:
		if len(p.live) == 0 {
			return c.kind, fmt.Errorf("gara-book: call %d: no live reservation", j)
		}
		i := int(c.pick % uint64(len(p.live)))
		r := p.live[i]
		d := bookDecision{kind: c.kind, id: r.ID(), spec: r.Spec(), ok: true}
		if c.kind == CallCancel {
			r.Cancel()
			last := len(p.live) - 1
			p.live[i] = p.live[last]
			p.live = p.live[:last]
		} else {
			d.spec.Bandwidth = c.rate
			d.ok = r.Modify(d.spec) == nil
		}
		p.decisions = append(p.decisions, d)
	}
	return c.kind, nil
}

func (p *bookPoint) Registry() *metrics.Registry { return p.tb.K.Metrics() }

// Collect replays the fill's bookings into an independent model of the
// admission rule and checks every timed call's decision against it,
// checks that every slot table holds what the model booked, and
// records the timed calls' outcomes plus the bottleneck's forward
// table.
func (p *bookPoint) Collect() (Result, error) {
	m := newBookModel(p.tb)
	for i, d := range p.decisions {
		if err := m.replay(d, i >= p.fill); err != nil {
			return Result{}, fmt.Errorf("gara-book: decision %d (%s): %v", i, d.kind, err)
		}
	}
	for _, l := range p.tb.Net.Links() {
		for _, out := range []*netsim.Iface{l.A(), l.B()} {
			if got, want := p.tb.NetRM.Table(out).Len(), len(m.slots[out]); got != want {
				return Result{}, fmt.Errorf("gara-book: link %s holds %d slots, the model %d", l.Name(), got, want)
			}
		}
	}
	outcomes := make([]byte, 0, len(p.decisions)-p.fill)
	for _, d := range p.decisions[p.fill:] {
		switch {
		case d.kind == CallCancel:
			outcomes = append(outcomes, 'c')
		case d.ok:
			outcomes = append(outcomes, '+')
		default:
			outcomes = append(outcomes, '-')
		}
	}
	fwd := p.tb.NetRM.Table(p.tb.Bottleneck.A())
	var b strings.Builder
	b.WriteString(record("outcomes", string(outcomes), "live", len(p.live)))
	for _, s := range fwd.Snapshot() {
		b.WriteString(record("id", s.ID, "start", int64(s.Start), "end", int64(s.End), "amount", s.Amount))
	}
	return Result{
		Record: b.String(),
		Counts: map[string]float64{CountSlots: float64(fwd.Len())},
	}, nil
}

// bookModel is the network resource manager's admission rule without
// its slot tables: a reservation fits when, on every egress interface
// of its route, the amounts already booked plus its own stay within
// the link's EF share at every instant of its window.
type bookModel struct {
	tb    *garnet.Testbed
	slots map[*netsim.Iface][]gara.Slot
	hops  map[uint64][]*netsim.Iface // booked reservation -> its route
	in    []gara.Slot                // scratch for fits
	keys  []uint64                   // scratch for peakCommitted
}

func newBookModel(tb *garnet.Testbed) *bookModel {
	return &bookModel{tb: tb, slots: make(map[*netsim.Iface][]gara.Slot), hops: make(map[uint64][]*netsim.Iface)}
}

// route walks the routing tables from the spec's source to its
// destination.
func (m *bookModel) route(spec gara.Spec) []*netsim.Iface {
	var node *netsim.Node
	for _, nd := range m.tb.Net.Nodes() {
		if nd.Addr() == *spec.Flow.Src {
			node = nd
		}
	}
	var hops []*netsim.Iface
	for node != nil && node.Addr() != *spec.Flow.Dst {
		out := node.RouteTo(*spec.Flow.Dst)
		hops = append(hops, out)
		node = out.Peer().Node()
	}
	return hops
}

// fits reports whether amount fits on every hop over [start, end),
// leaving out reservation self's own booking.
func (m *bookModel) fits(hops []*netsim.Iface, start, end time.Duration, amount float64, self uint64) bool {
	for _, out := range hops {
		capacity := float64(out.Link().Rate()) * m.tb.Options().EFFraction
		m.in = m.in[:0]
		for _, s := range m.slots[out] {
			if s.ID != self && s.Start < end && s.End > start {
				m.in = append(m.in, gara.Slot{Start: max(s.Start, start), End: s.End, Amount: s.Amount})
			}
		}
		var peak float64
		peak, m.keys = peakCommitted(m.in, m.keys[:0])
		if peak+amount > capacity+1e-9 {
			return false
		}
	}
	return true
}

func (m *bookModel) book(id uint64, hops []*netsim.Iface, start, end time.Duration, amount float64) {
	m.release(id)
	for _, out := range hops {
		m.slots[out] = append(m.slots[out], gara.Slot{ID: id, Start: start, End: end, Amount: amount})
	}
	m.hops[id] = hops
}

func (m *bookModel) release(id uint64) {
	for _, out := range m.hops[id] {
		slots := m.slots[out]
		for i := range slots {
			if slots[i].ID == id {
				slots[i] = slots[len(slots)-1]
				m.slots[out] = slots[:len(slots)-1]
				break
			}
		}
	}
	delete(m.hops, id)
}

// replay applies one decision to the model, first checking it when
// check is set. Every spec starts in the future of the never-running
// kernel, so its window is [Start, Start+Duration).
func (m *bookModel) replay(d bookDecision, check bool) error {
	start, end := d.spec.Start, d.spec.Start+d.spec.Duration
	amount := float64(d.spec.Bandwidth)
	hops := m.hops[d.id]
	switch d.kind {
	case CallCancel, CallModify:
		if hops == nil {
			return fmt.Errorf("reservation %d is not booked", d.id)
		}
	default:
		hops = m.route(d.spec)
	}
	if d.kind == CallCancel {
		m.release(d.id)
		return nil
	}
	if check {
		if want := m.fits(hops, start, end, amount, d.id); want != d.ok {
			return fmt.Errorf("GARA admitted=%v, the model %v", d.ok, want)
		}
	}
	if d.ok && d.kind != CallProbe {
		m.book(d.id, hops, start, end, amount)
	}
	return nil
}

// peakCommitted is the largest total amount the slots commit at any
// instant: a sweep over their boundaries in time order, ends before
// starts at one instant since slots are half-open. Each boundary is
// sorted as one key, time<<17 | start<<16 | slot index; keys is
// scratch space, returned for reuse.
func peakCommitted(slots []gara.Slot, keys []uint64) (float64, []uint64) {
	const startBit, indexMask = 1 << 16, 1<<16 - 1
	if len(slots) > indexMask {
		panic("gara-book: too many slots for the sweep's keys")
	}
	for i, s := range slots {
		keys = append(keys, uint64(s.End)<<17|uint64(i), uint64(s.Start)<<17|startBit|uint64(i))
	}
	slices.Sort(keys)
	peak, cur := 0.0, 0.0
	for _, k := range keys {
		if a := slots[k&indexMask].Amount; k&startBit != 0 {
			cur += a
			peak = max(peak, cur)
		} else {
			cur -= a
		}
	}
	return peak, keys
}
