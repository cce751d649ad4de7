package metrics_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpichgq/internal/metrics"
	"mpichgq/internal/quicktest"
	"mpichgq/internal/spans"
)

// ringModel is the plain-slice oracle for metrics.Ring: every value
// ever put, the model seq of each being its index, and the index of the
// oldest one a ring of capacity cap still holds.
type ringModel struct {
	all   []int64
	first int
	cap   int
}

// spanAttr returns the named attribute of s.
func spanAttr(s spans.Span, key string) (spans.Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return spans.Attr{}, false
}

func (m *ringModel) put(v int64) {
	m.all = append(m.all, v)
	m.trim()
}

func (m *ringModel) setCapacity(n int) {
	m.cap = max(n, 1)
	m.trim()
}

func (m *ringModel) trim() {
	if len(m.all)-m.first > m.cap {
		m.first = len(m.all) - m.cap
	}
}

func (m *ringModel) since(seq int) []int64 { return m.all[min(max(seq, m.first), len(m.all)):] }

func (m *ringModel) selectLast(match func(int64) bool, last int) []int64 {
	var out []int64
	for _, v := range m.all[m.first:] {
		if match(v) {
			out = append(out, v)
		}
	}
	if last > 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}

// ringFront is one public face of a metrics.Ring: the flight recorder
// or the tracer's completed-span ring, with records reduced to the
// int64 each was put with. Values are put with subject "even" or "odd"
// by parity, so the subject queries select by parity. since is nil
// where the front has no Since.
type ringFront struct {
	put         func(v int64)
	setCapacity func(n int)
	len         func() int
	capacity    func() int
	dropped     func() uint64
	snapshot    func() []int64
	since       func(seq uint64) []int64
	bySubject   func(subject string, last int) []int64
}

func parity(v int64) string {
	if v%2 == 0 {
		return "even"
	}
	return "odd"
}

// recorderFront drives the flight recorder. It also checks that every
// event returned carries its own ring seq, as the model numbers it.
func recorderFront(t *testing.T, capacity int) ringFront {
	rec := metrics.New(nil).Events()
	rec.SetCapacity(capacity)
	values := func(evs []metrics.Event) []int64 {
		out := make([]int64, 0, len(evs))
		for _, e := range evs {
			if e.Seq != uint64(e.V2) {
				t.Errorf("event seq %d carries the record put as seq %d", e.Seq, e.V2)
			}
			out = append(out, e.V1)
		}
		return out
	}
	var seq int64
	return ringFront{
		put: func(v int64) {
			rec.Emit(metrics.EvTCPSegment, parity(v), v, seq, 0)
			seq++
		},
		setCapacity: rec.SetCapacity,
		len:         rec.Len,
		capacity:    rec.Capacity,
		dropped:     rec.Dropped,
		snapshot:    func() []int64 { return values(rec.Snapshot()) },
		since:       func(seq uint64) []int64 { return values(rec.Since(seq)) },
		bySubject: func(subject string, last int) []int64 {
			return values(rec.Query(metrics.EventFilter{Subject: subject, Last: last}))
		},
	}
}

// tracerFront drives the tracer, whose ring is made by the first
// SetCapacity. Span IDs count Begin calls from 1, so each retained span
// must carry ID seq+1.
func tracerFront(t *testing.T, capacity int) ringFront {
	tr := spans.New(nil)
	tr.SetCapacity(capacity)
	tr.SetEnabled(true)
	values := func(ss []spans.Span) []int64 {
		out := make([]int64, 0, len(ss))
		for _, s := range ss {
			a, _ := spanAttr(s, "seq")
			if uint64(s.ID) != uint64(a.Val)+1 {
				t.Errorf("span %d carries the record put as seq %d", s.ID, a.Val)
			}
			v, _ := spanAttr(s, "v")
			out = append(out, v.Val)
		}
		return out
	}
	var seq int64
	// The tracer does not report its capacity; len and dropped pin the
	// ring's size against the model.
	size := max(capacity, 1)
	return ringFront{
		put: func(v int64) {
			tr.Begin(1, 0, "op", parity(v)).Int("v", v).Int("seq", seq).End()
			seq++
		},
		setCapacity: func(n int) { tr.SetCapacity(n); size = max(n, 1) },
		len:         tr.Len,
		capacity:    func() int { return size },
		dropped:     tr.Dropped,
		snapshot:    func() []int64 { return values(tr.Snapshot()) },
		bySubject: func(subject string, last int) []int64 {
			return values(tr.Query(spans.Filter{Subject: subject, Limit: last}))
		},
	}
}

// checkRing runs ops generated operations from rng against front and
// the model, comparing after each one; it returns the first
// disagreement, or "".
func checkRing(rng *rand.Rand, front ringFront, capacity, ops int) string {
	m := &ringModel{cap: max(capacity, 1)}
	for op := 0; op < ops; op++ {
		var what string
		switch d := rng.Intn(20); {
		case d < 11:
			v := rng.Int63n(1000)
			what = fmt.Sprintf("put %d", v)
			front.put(v)
			m.put(v)
		case d < 14:
			n := []int{m.cap + 1 + rng.Intn(8), rng.Intn(m.cap + 1), 1}[rng.Intn(3)]
			what = fmt.Sprintf("SetCapacity(%d)", n)
			front.setCapacity(n)
			m.setCapacity(n)
		case d < 17:
			if front.since == nil {
				continue
			}
			// An evicted, a retained, or a future seq.
			seq := []int{rng.Intn(m.first + 1), m.first + rng.Intn(len(m.all)-m.first+1), len(m.all) + rng.Intn(4)}[rng.Intn(3)]
			what = fmt.Sprintf("Since(%d)", seq)
			if got, want := front.since(uint64(seq)), m.since(seq); !slices.Equal(got, want) {
				return fmt.Sprintf("op %d %s = %v, model %v", op, what, got, want)
			}
		default:
			subject, last := parity(rng.Int63n(2)), 0
			if rng.Intn(2) == 0 {
				last = 1 + rng.Intn(len(m.all)-m.first+2)
			}
			what = fmt.Sprintf("select %s last %d", subject, last)
			want := m.selectLast(func(v int64) bool { return parity(v) == subject }, last)
			if got := front.bySubject(subject, last); !slices.Equal(got, want) {
				return fmt.Sprintf("op %d %s = %v, model %v", op, what, got, want)
			}
		}
		if got, want := front.snapshot(), m.all[m.first:]; !slices.Equal(got, want) {
			return fmt.Sprintf("after op %d %s: snapshot %v, model %v", op, what, got, want)
		}
		if front.len() != len(m.all)-m.first || front.capacity() != m.cap || front.dropped() != uint64(m.first) {
			return fmt.Sprintf("after op %d %s: len/capacity/dropped %d/%d/%d, model %d/%d/%d", op, what,
				front.len(), front.capacity(), front.dropped(), len(m.all)-m.first, m.cap, m.first)
		}
	}
	return ""
}

// Property: over generated sequences of puts, resizes (grow, shrink,
// to 1, and 0 clamped to 1), Since queries at evicted, retained and
// future seqs, and subject selections with and without a keep-last
// bound, the flight recorder and the tracer both behave as a plain
// slice that forgets all but its newest capacity records.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, front := range []struct {
		name string
		make func(*testing.T, int) ringFront
	}{{"Recorder", recorderFront}, {"Tracer", tracerFront}} {
		t.Run(front.name, func(t *testing.T) {
			f := func(seed int64, capacity uint8) bool {
				c := int(capacity % 12)
				if diff := checkRing(rand.New(rand.NewSource(seed)), front.make(t, c), c, 200); diff != "" {
					t.Logf("seed %d capacity %d: %s", seed, c, diff)
					return false
				}
				return true
			}
			if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
