package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func testClock(now *time.Duration) func() time.Duration {
	return func() time.Duration { return *now }
}

func TestCounter(t *testing.T) {
	r := New(nil)
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters never run backwards
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("x_total", "help"); c2 != c {
		t.Fatal("re-registration did not dedup")
	}
	if c3 := r.Counter("x_total", "help", "node", "a"); c3 == c {
		t.Fatal("different label set must be a distinct series")
	}
}

func TestCounterLabelOrderInsensitive(t *testing.T) {
	r := New(nil)
	a := r.Counter("y_total", "", "k1", "v1", "k2", "v2")
	b := r.Counter("y_total", "", "k2", "v2", "k1", "v1")
	if a != b {
		t.Fatal("label order must not create a new series")
	}
	a.Inc()
	if v, ok := r.CounterValue("y_total", "k2", "v2", "k1", "v1"); !ok || v != 1 {
		t.Fatalf("CounterValue = %d, %v", v, ok)
	}
}

// snapshotMetric finds a series in a snapshot by name and labels
// (alternating key/value pairs, any order).
func snapshotMetric(s *Snapshot, name string, labels ...string) (MetricSnapshot, bool) {
	if len(labels)%2 != 0 {
		return MetricSnapshot{}, false
	}
outer:
	for _, m := range s.Metrics {
		if m.Name != name || len(m.Labels)*2 != len(labels) {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if m.Labels[labels[i]] != labels[i+1] {
				continue outer
			}
		}
		return m, true
	}
	return MetricSnapshot{}, false
}

// gaugeValue reads a gauge (plain or func) by name and labels.
func gaugeValue(r *Registry, name string, labels ...string) (float64, bool) {
	key, _ := metricKey(name, labels)
	r.mu.Lock()
	e := r.byKey[key]
	r.mu.Unlock()
	if e == nil {
		return 0, false
	}
	switch e.kind {
	case KindGauge:
		return e.gauge.Value(), true
	case KindGaugeFunc:
		return e.fn(), true
	}
	return 0, false
}

func TestGauge(t *testing.T) {
	r := New(nil)
	g := r.Gauge("g", "")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	if v, ok := gaugeValue(r, "g"); !ok || v != 1.5 {
		t.Fatalf("GaugeValue = %v, %v", v, ok)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New(nil)
	n := 7.0
	r.GaugeFunc("qdepth", "", func() float64 { return n })
	if v, ok := gaugeValue(r, "qdepth"); !ok || v != 7 {
		t.Fatalf("GaugeValue = %v, %v", v, ok)
	}
	n = 9
	if v, _ := gaugeValue(r, "qdepth"); v != 9 {
		t.Fatalf("GaugeFunc not live: %v", v)
	}
	// Re-registration replaces fn.
	r.GaugeFunc("qdepth", "", func() float64 { return -1 })
	if v, _ := gaugeValue(r, "qdepth"); v != -1 {
		t.Fatalf("fn not replaced: %v", v)
	}
}

func TestHistogram(t *testing.T) {
	r := New(nil)
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	counts, sum, count := h.Snapshot()
	want := []uint64{1, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, c, want[i], counts)
		}
	}
	if count != 5 || sum != 560.5 {
		t.Fatalf("count=%d sum=%v", count, sum)
	}
	if h.total != 5 || h.sum != 560.5 {
		t.Fatalf("Count/Sum accessors disagree")
	}
	if b := h.Bounds(); len(b) != 3 || b[2] != 100 {
		t.Fatalf("bounds = %v", b)
	}
	// Boundary values land in the bucket they equal (le semantics).
	h2 := r.Histogram("lat2", "", []float64{1, 10})
	h2.Observe(1)
	if counts, _, _ := h2.Snapshot(); counts[0] != 1 {
		t.Fatalf("le semantics broken: %v", counts)
	}
	// Repeat registration keeps original buckets and handle.
	if h3 := r.Histogram("lat", "", []float64{42}); h3 != h {
		t.Fatal("histogram not deduped")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New(nil)
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

func TestOddLabelsPanics(t *testing.T) {
	r := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd label list")
		}
	}()
	r.Counter("m", "", "keyonly")
}

func TestLookupMisses(t *testing.T) {
	r := New(nil)
	if _, ok := r.CounterValue("absent"); ok {
		t.Fatal("CounterValue on absent series")
	}
	if _, ok := gaugeValue(r, "absent"); ok {
		t.Fatal("GaugeValue on absent series")
	}
	r.Gauge("g", "")
	if _, ok := r.CounterValue("g"); ok {
		t.Fatal("CounterValue must reject non-counter")
	}
	r.Counter("c", "")
	if _, ok := gaugeValue(r, "c"); ok {
		t.Fatal("GaugeValue must reject counter")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCounter: "counter", KindGauge: "gauge",
		KindGaugeFunc: "gauge", KindHistogram: "histogram",
		Kind(99): "untyped",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	now := 0 * time.Second
	r := New(testClock(&now))
	rec := r.Events()
	if rec.Capacity() != DefaultRecorderCapacity {
		t.Fatalf("capacity = %d", rec.Capacity())
	}
	if rec.Seq() != 0 || rec.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	now = 3 * time.Second
	rec.Emit(EvNoRoute, "n1", 7, 64, 0)
	evs := rec.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("len = %d", len(evs))
	}
	e := evs[0]
	if e.Seq != 0 || e.At != 3*time.Second || e.Type != EvNoRoute || e.Subject != "n1" || e.V1 != 7 || e.V2 != 64 {
		t.Fatalf("event = %+v", e)
	}
	if rec.Seq() != 1 {
		t.Fatalf("Seq = %d", rec.Seq())
	}
}

func TestRecorderWrapAndSince(t *testing.T) {
	now := time.Duration(0)
	rec := New(testClock(&now)).Events()
	rec.SetCapacity(4)
	for i := 0; i < 10; i++ {
		rec.Emit(EvTCPSegment, "s", int64(i), 0, 0)
	}
	if rec.Len() != 4 || rec.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", rec.Len(), rec.Dropped())
	}
	evs := rec.Snapshot()
	for i, e := range evs {
		if e.V1 != int64(6+i) {
			t.Fatalf("snapshot[%d].V1 = %d", i, e.V1)
		}
	}
	since := rec.Since(8)
	if len(since) != 2 || since[0].Seq != 8 || since[1].Seq != 9 {
		t.Fatalf("since = %+v", since)
	}
	// Seq older than retention returns everything retained.
	if got := rec.Since(0); len(got) != 4 {
		t.Fatalf("since(0) len = %d", len(got))
	}
	// Seq beyond the end returns nothing.
	if got := rec.Since(100); len(got) != 0 {
		t.Fatalf("since(100) len = %d", len(got))
	}
}

func TestRecorderSetCapacity(t *testing.T) {
	now := time.Duration(0)
	rec := New(testClock(&now)).Events()
	rec.SetCapacity(8)
	for i := 0; i < 6; i++ {
		rec.Emit(EvTCPSegment, "s", int64(i), 0, 0)
	}
	rec.SetCapacity(3) // shrink: keep newest 3
	if rec.Capacity() != 3 || rec.Len() != 3 {
		t.Fatalf("cap=%d len=%d", rec.Capacity(), rec.Len())
	}
	if evs := rec.Snapshot(); evs[0].V1 != 3 || evs[2].V1 != 5 {
		t.Fatalf("shrink kept %+v", evs)
	}
	rec.SetCapacity(16) // grow: keep all retained
	if rec.Capacity() != 16 || rec.Len() != 3 {
		t.Fatalf("cap=%d len=%d after grow", rec.Capacity(), rec.Len())
	}
	rec.Emit(EvTCPSegment, "s", 6, 0, 0)
	if evs := rec.Snapshot(); len(evs) != 4 || evs[3].V1 != 6 {
		t.Fatalf("post-grow snapshot %+v", evs)
	}
	rec.SetCapacity(0) // clamps to 1
	if rec.Capacity() != 1 {
		t.Fatalf("cap = %d, want 1", rec.Capacity())
	}
}

func TestEventTypeNames(t *testing.T) {
	for ty := EvNone + 1; ty < evSentinel; ty++ {
		name := ty.String()
		if name == "unknown" || name == "" {
			t.Fatalf("event type %d has no name", ty)
		}
		back, ok := ParseEventType(name)
		if !ok || back != ty {
			t.Fatalf("round-trip %q -> %v, %v", name, back, ok)
		}
	}
	if EventType(200).String() != "unknown" {
		t.Fatal("out-of-range String")
	}
	if _, ok := ParseEventType("definitely-not"); ok {
		t.Fatal("parse of bogus name succeeded")
	}
	if _, ok := ParseEventType("none"); ok {
		t.Fatal("EvNone must not parse")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(nil)
	r.Counter("pkts_total", "packets", "iface", "a[b]").Add(3)
	r.Gauge("depth", "queue depth").Set(1.5)
	r.GaugeFunc("util", "", func() float64 { return 0.25 })
	h := r.Histogram("rtt", "round trip", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pkts_total packets",
		"# TYPE pkts_total counter",
		`pkts_total{iface="a[b]"} 3`,
		"# TYPE depth gauge",
		"depth 1.5",
		"util 0.25",
		"# TYPE rtt histogram",
		`rtt_bucket{le="0.001"} 1`,
		`rtt_bucket{le="0.01"} 1`,
		`rtt_bucket{le="+Inf"} 2`,
		"rtt_sum 0.5005",
		"rtt_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	now := 2 * time.Second
	r := New(testClock(&now))
	r.Counter("c_total", "", "node", "x").Add(11)
	r.Gauge("g", "").Set(3)
	r.GaugeFunc("gf", "", func() float64 { return 4 })
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	r.Events().Emit(EvMPIRecv, "rank-1", 100, 2, 5000)
	r.Events().Emit(EvTCPTimeout, "n", 1, 2, 3)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSnapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if s.TakenAtNs != int64(2*time.Second) {
		t.Fatalf("TakenAtNs = %d", s.TakenAtNs)
	}
	m, ok := snapshotMetric(s, "c_total", "node", "x")
	if !ok || m.Value != 11 || m.Kind != "counter" {
		t.Fatalf("metric = %+v, %v", m, ok)
	}
	if _, ok := snapshotMetric(s, "c_total"); ok {
		t.Fatal("label-less lookup must not match labelled series")
	}
	if _, ok := snapshotMetric(s, "c_total", "node"); ok {
		t.Fatal("odd label list must not match")
	}
	if m, ok := snapshotMetric(s, "h"); !ok || m.Count != 1 || len(m.Counts) != 2 {
		t.Fatalf("histogram snapshot = %+v, %v", m, ok)
	}
	if m, ok := snapshotMetric(s, "gf"); !ok || m.Value != 4 {
		t.Fatalf("gaugefunc snapshot = %+v", m)
	}
	recvs := s.EventsOfType("mpi-recv")
	if len(recvs) != 1 || recvs[0].Subject != "rank-1" || recvs[0].V3 != 5000 {
		t.Fatalf("events = %+v", recvs)
	}
	first, last := s.Span()
	if first != 2*time.Second || last != 2*time.Second {
		t.Fatalf("span = %v..%v", first, last)
	}
	var empty Snapshot
	if f, l := empty.Span(); f != 0 || l != 0 {
		t.Fatal("empty span not zero")
	}
}

func TestLoadSnapshotError(t *testing.T) {
	if _, err := LoadSnapshot(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestConcurrency(t *testing.T) {
	r := New(nil)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 3})
	rec := r.Events()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j % 5))
				rec.Emit(EvTCPSegment, "s", int64(j), 0, 0)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 999 {
		t.Fatalf("counter=%d gauge=%v", c.Value(), g.Value())
	}
	if h.total != 8000 || rec.Seq() != 8000 {
		t.Fatalf("hist=%d seq=%d", h.total, rec.Seq())
	}
}

// TestFastPathAllocs is the ISSUE's allocation-freedom gate: every
// per-packet update path must not allocate.
func TestFastPathAllocs(t *testing.T) {
	r := New(nil)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefLatencyBuckets)
	rec := r.Events()
	cases := map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(1.25) },
		"Histogram.Observe": func() { h.Observe(0.003) },
		"Recorder.Emit":     func() { rec.Emit(EvTCPSegment, "node", 1, 2, 0) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New(nil).Counter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New(nil).Histogram("h", "", DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	rec := New(nil).Events()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(EvTCPSegment, "node", int64(i), 1448, 0)
	}
}
