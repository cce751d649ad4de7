package spans

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable virtual clock for tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func newTestTracer() (*Tracer, *fakeClock) {
	c := &fakeClock{}
	t := New(c.Now)
	t.SetEnabled(true)
	return t, c
}

// attr returns the named attribute of s and whether it exists.
func attr(s Span, key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

func TestDisabledTracerIsInert(t *testing.T) {
	tr := New(nil)
	sp := tr.Begin(1, 0, "op", "subj")
	if sp != nil {
		t.Fatalf("Begin on disabled tracer = %v, want nil", sp)
	}
	// Every method must tolerate the nil handle.
	sp.Int("k", 1).Str("s", "v")
	sp.End()
	sp.EndStatus(StatusLeaked)
	if id := sp.SpanID(); id != 0 {
		t.Fatalf("nil span SpanID = %d, want 0", id)
	}
	if ctx := sp.Ctx(); ctx.Valid() {
		t.Fatalf("nil span Ctx = %+v, want invalid", ctx)
	}
	if tr.Len() != 0 || tr.Active() != 0 {
		t.Fatalf("disabled tracer retained spans: len=%d active=%d", tr.Len(), tr.Active())
	}
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if sp := nilTracer.Begin(1, 0, "op", ""); sp != nil {
		t.Fatal("nil tracer Begin returned a span")
	}
}

// A tracer that is never enabled allocates no ring but still reports
// the ring it would use; enabling it later allocates that ring, and a
// capacity set while disabled carries over.
func TestNeverEnabledTracerHasNoRing(t *testing.T) {
	tr := New(nil)
	if tr.ring != nil {
		t.Fatalf("fresh tracer allocated a %d-span ring", tr.ring.Capacity())
	}
	if c := tr.size; c != DefaultCapacity {
		t.Fatalf("Capacity = %d, want %d", c, DefaultCapacity)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Snapshot()) != 0 {
		t.Fatalf("never-enabled tracer: len=%d dropped=%d snapshot=%d",
			tr.Len(), tr.Dropped(), len(tr.Snapshot()))
	}
	tr.SetEnabled(false)
	if tr.ring != nil {
		t.Fatal("SetEnabled(false) allocated the ring")
	}
	tr.SetEnabled(true)
	if tr.ring == nil || tr.ring.Capacity() != DefaultCapacity {
		t.Fatalf("enabled ring = %v, want %d spans", tr.ring, DefaultCapacity)
	}

	tr = New(nil)
	tr.SetCapacity(3)
	if tr.size != 3 || tr.Len() != 0 {
		t.Fatalf("after SetCapacity(3): capacity=%d len=%d", tr.size, tr.Len())
	}
	tr.SetEnabled(true)
	for i := 0; i < 5; i++ {
		tr.Begin(1, 0, "op", "s").End()
	}
	if tr.size != 3 || tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("capacity=%d len=%d dropped=%d, want 3/3/2", tr.size, tr.Len(), tr.Dropped())
	}
}

func TestBeginEndLifecycle(t *testing.T) {
	tr, clk := newTestTracer()
	clk.now = 10 * time.Millisecond
	root := tr.Begin(DeriveTrace(NSReservation, 7), 0, "gara.reserve", "net")
	if root == nil {
		t.Fatal("Begin returned nil on enabled tracer")
	}
	root.Int("res", 7)
	clk.now = 15 * time.Millisecond
	child := tr.Begin(root.TraceID(), root.SpanID(), "rpc.prepare", "dom1")
	clk.now = 20 * time.Millisecond
	child.EndStatus(StatusFailed)
	if tr.Active() != 1 {
		t.Fatalf("Active = %d, want 1", tr.Active())
	}
	clk.now = 30 * time.Millisecond
	root.End()
	root.End() // idempotent

	got := tr.Snapshot()
	if len(got) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(got))
	}
	// Commit order is End order: child first.
	c, r := got[0], got[1]
	if c.Name != "rpc.prepare" || c.Parent != r.ID || c.Trace != r.Trace {
		t.Fatalf("child not parent-linked: child=%+v root=%+v", c, r)
	}
	if c.Status != StatusFailed || r.Status != StatusOK {
		t.Fatalf("statuses = %v/%v, want failed/ok", c.Status, r.Status)
	}
	if c.Start != 15*time.Millisecond || c.Dur != 5*time.Millisecond {
		t.Fatalf("child timing = %v+%v", c.Start, c.Dur)
	}
	if r.Start != 10*time.Millisecond || r.Dur != 20*time.Millisecond {
		t.Fatalf("root timing = %v+%v", r.Start, r.Dur)
	}
	if a, ok := attr(r, "res"); !ok || a.Val != 7 {
		t.Fatalf("root res attr = %+v ok=%v", a, ok)
	}
}

func TestDeriveTraceDeterministic(t *testing.T) {
	a := DeriveTrace(NSReservation, 42)
	b := DeriveTrace(NSReservation, 42)
	if a != b {
		t.Fatalf("DeriveTrace not deterministic: %v != %v", a, b)
	}
	if a == DeriveTrace(NSCoReserve, 42) {
		t.Fatal("namespaces collide")
	}
	if a == DeriveTrace(NSReservation, 43) {
		t.Fatal("keys collide")
	}
	if DeriveTraceString(NSFault, "figG-chaos") != DeriveTraceString(NSFault, "figG-chaos") {
		t.Fatal("DeriveTraceString not deterministic")
	}
	if DeriveTrace(NSReservation, 1) == 0 {
		t.Fatal("derived trace is zero")
	}
	// Round-trip through the hex form.
	id, ok := ParseTraceID(a.String())
	if !ok || id != a {
		t.Fatalf("ParseTraceID(%q) = %v, %v", a.String(), id, ok)
	}
	if _, ok := ParseTraceID("xyz"); ok {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestRingEviction(t *testing.T) {
	tr, clk := newTestTracer()
	tr.SetCapacity(4)
	for i := 0; i < 10; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		tr.Begin(1, 0, "op", "s").Int("i", int64(i)).End()
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	got := tr.Snapshot()
	if a, _ := attr(got[0], "i"); a.Val != 6 {
		t.Fatalf("oldest retained = %d, want 6", a.Val)
	}
	// Growing the ring keeps the retained spans.
	tr.SetCapacity(16)
	if tr.Len() != 4 {
		t.Fatalf("Len after grow = %d, want 4", tr.Len())
	}
	if a, _ := attr(tr.Snapshot()[3], "i"); a.Val != 9 {
		t.Fatalf("newest after grow = %d, want 9", a.Val)
	}
}

func TestQueryFilters(t *testing.T) {
	tr, clk := newTestTracer()
	tA, tB := DeriveTrace(NSReservation, 1), DeriveTrace(NSReservation, 2)
	tr.Begin(tA, 0, "gara.lease", "net").Int("res", 1).EndStatus(StatusLeaked)
	clk.now = 5 * time.Millisecond
	sp := tr.Begin(tB, 0, "rpc.prepare", "dom2").Int("res", 2)
	clk.now = 25 * time.Millisecond
	sp.End()
	tr.Begin(tB, 0, "rpc.commit", "dom2").EndStatus(StatusFailed)

	if got := tr.Query(Filter{Trace: tA}); len(got) != 1 || got[0].Name != "gara.lease" {
		t.Fatalf("Trace filter: %+v", got)
	}
	if got := tr.Query(Filter{NamePrefix: "rpc."}); len(got) != 2 {
		t.Fatalf("NamePrefix filter: %+v", got)
	}
	if got := tr.Query(Filter{HasStatus: true, Status: StatusLeaked}); len(got) != 1 {
		t.Fatalf("Status filter: %+v", got)
	}
	if got := tr.Query(Filter{HasStatus: true, Status: StatusOK}); len(got) != 1 || got[0].Name != "rpc.prepare" {
		t.Fatalf("StatusOK filter: %+v", got)
	}
	if got := tr.Query(Filter{MinDur: 10 * time.Millisecond}); len(got) != 1 || got[0].Name != "rpc.prepare" {
		t.Fatalf("MinDur filter: %+v", got)
	}
	if got := tr.Query(Filter{Subject: "dom2", Limit: 1}); len(got) != 1 || got[0].Name != "rpc.commit" {
		t.Fatalf("Limit keeps most recent: %+v", got)
	}
	if got := tr.Trace(tB); len(got) != 2 || got[0].Name != "rpc.prepare" {
		t.Fatalf("Trace() order: %+v", got)
	}
}

func TestSpanIDsDeterministic(t *testing.T) {
	run := func() []Span {
		tr, clk := newTestTracer()
		for i := 0; i < 5; i++ {
			clk.now = time.Duration(i) * time.Second
			p := tr.Begin(DeriveTrace(NSCoReserve, uint64(i)), 0, "co.reserve", "coord")
			tr.Begin(p.TraceID(), p.SpanID(), "rpc.prepare", "dom1").End()
			p.End()
		}
		return tr.Snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		a[i].tr, b[i].tr = nil, nil
		if a[i].ID != b[i].ID || a[i].Trace != b[i].Trace || a[i].Start != b[i].Start {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr, clk := newTestTracer()
	trace := DeriveTrace(NSCoReserve, 1)
	root := tr.Begin(trace, 0, "co.reserve", "coord")
	clk.now = 2 * time.Millisecond
	tr.Begin(trace, root.SpanID(), "rpc.prepare", "dom1").Int("attempts", 2).End()
	clk.now = 4 * time.Millisecond
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Proc{PID: 0, Label: "test", Spans: tr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, meta int
	var sawParentLink bool
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Name == "rpc.prepare" {
				if p, ok := e.Args["parent"].(float64); !ok || SpanID(p) != root.SpanID() {
					t.Fatalf("rpc.prepare parent arg = %v, want %d", e.Args["parent"], root.SpanID())
				}
				if e.Args["attempts"].(float64) != 2 {
					t.Fatalf("attrs not exported: %v", e.Args)
				}
				if e.TS != 2000 { // µs
					t.Fatalf("ts = %v µs, want 2000", e.TS)
				}
				sawParentLink = true
			}
		}
	}
	if complete != 2 || meta < 2 || !sawParentLink {
		t.Fatalf("events: complete=%d meta=%d parentLink=%v", complete, meta, sawParentLink)
	}

	// Byte-determinism of the export itself.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, Proc{PID: 0, Label: "test", Spans: tr.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChromeTrace is not byte-deterministic")
	}
}

func TestWriteTree(t *testing.T) {
	tr, clk := newTestTracer()
	trace := DeriveTrace(NSWatchdog, 3)
	root := tr.Begin(trace, 0, "wd.outage", "rank0")
	clk.now = time.Millisecond
	tr.Begin(trace, root.SpanID(), "wd.repair", "rank0").Int("attempt", 1).End()
	root.EndStatus(StatusBreached)

	var buf bytes.Buffer
	if err := WriteTree(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "trace "+trace.String()) {
		t.Fatalf("missing trace header:\n%s", out)
	}
	if !strings.Contains(out, "  wd.outage") || !strings.Contains(out, "    wd.repair") {
		t.Fatalf("missing nesting:\n%s", out)
	}
	if !strings.Contains(out, "breached") || !strings.Contains(out, "attempt=1") {
		t.Fatalf("missing status/attrs:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	tr, _ := newTestTracer()
	tr.Begin(DeriveTrace(NSFlow, 9), 0, "tcp.connect", "hostA").EndStatus(StatusOK)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0]["name"] != "tcp.connect" || out[0]["status"] != "ok" {
		t.Fatalf("JSON export: %+v", out)
	}
}

func TestCollectorDeterministicAcrossAddOrder(t *testing.T) {
	mk := func(order []int) *bytes.Buffer {
		c := NewCollector()
		var wg sync.WaitGroup
		for _, pid := range order {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				tr, _ := newTestTracer()
				tr.Begin(DeriveTrace(NSReservation, uint64(pid)), 0, "gara.reserve", "net").End()
				c.Add(pid, "point", tr.Snapshot())
			}(pid)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := c.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a := mk([]int{0, 1, 2, 3})
	b := mk([]int{3, 1, 0, 2})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("collector output depends on Add order")
	}
	c := NewCollector()
	if c.Len() != 0 {
		t.Fatal("fresh collector not empty")
	}
}

func TestConcurrentReadersWhileWriting(t *testing.T) {
	tr, clk := newTestTracer()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.Query(Filter{NamePrefix: "op", Limit: 8})
				tr.Len()
				tr.Dropped()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		clk.now = time.Duration(i) * time.Microsecond
		tr.Begin(DeriveTrace(NSFlow, uint64(i%13)), 0, "op", "s").End()
	}
	close(stop)
	wg.Wait()
	if tr.Len() == 0 {
		t.Fatal("no spans retained")
	}
}

// BenchmarkSpanBeginEnd is the cost of one instrumented operation with
// the tracer off (a nil span) and on (a span committed to the ring).
func BenchmarkSpanBeginEnd(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			tr := New(nil)
			tr.SetEnabled(on)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Begin(1, 0, "op", "s").End()
			}
		})
	}
}
