package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusEmptyRegistry pins the exporter's zero state: a
// registry with no metrics renders to valid (empty) exposition text
// and an empty-but-loadable JSON snapshot, so a freshly started gqd
// never 500s on /metrics.
func TestWritePrometheusEmptyRegistry(t *testing.T) {
	r := New(nil)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus on empty registry: %v", err)
	}
	if got := b.String(); got != "" {
		t.Fatalf("empty registry rendered %q, want no output", got)
	}
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON on empty registry: %v", err)
	}
	s, err := LoadSnapshot(&b)
	if err != nil {
		t.Fatalf("LoadSnapshot of empty registry: %v", err)
	}
	if _, ok := snapshotMetric(s, "anything"); ok {
		t.Fatal("empty snapshot resolved a metric")
	}
}

// TestHistogramZeroObservations pins the exporter on a registered but
// never-observed histogram: all buckets (including +Inf), sum, and
// count must render as explicit zeros rather than being skipped.
func TestHistogramZeroObservations(t *testing.T) {
	r := New(nil)
	r.Histogram("rtt", "round trip", []float64{0.01, 0.1})
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rtt histogram",
		`rtt_bucket{le="0.01"} 0`,
		`rtt_bucket{le="0.1"} 0`,
		`rtt_bucket{le="+Inf"} 0`,
		"rtt_sum 0",
		"rtt_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("zero-observation histogram missing %q:\n%s", want, out)
		}
	}
	s := r.TakeSnapshot()
	m, ok := snapshotMetric(&s, "rtt")
	if !ok || m.Count != 0 || m.Sum != 0 {
		t.Fatalf("zero-observation snapshot = %+v, %v", m, ok)
	}
}

// TestSnapshotUnderConcurrentWrites exercises the export paths while
// writers hammer every metric kind — the live situation inside gqd,
// where /metrics and /events render concurrently with the stepper.
// Run under -race; correctness assertion is that every snapshot is
// internally consistent and the final state is exact.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	r := New(nil)
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})
	rec := r.Events()

	const writers, rounds = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(j % 4))
				rec.Emit(EvTCPSegment, "s", int64(j), 0, 0)
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.TakeSnapshot()
			if m, ok := snapshotMetric(&s, "h"); ok {
				var inBuckets uint64
				for _, n := range m.Counts {
					inBuckets += n
				}
				if inBuckets != m.Count {
					t.Errorf("torn histogram snapshot: buckets sum to %d, count %d", inBuckets, m.Count)
					return
				}
			}
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("WritePrometheus under writers: %v", err)
				return
			}
			if err := r.WriteJSON(&b); err != nil {
				t.Errorf("WriteJSON under writers: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	if c.Value() != writers*rounds {
		t.Fatalf("final counter = %d", c.Value())
	}
	if h.total != writers*rounds {
		t.Fatalf("final histogram count = %d", h.total)
	}
	if rec.Seq() != writers*rounds {
		t.Fatalf("final event seq = %d", rec.Seq())
	}
}

// TestFilterEvents covers the shared tail query behind gqctl events
// and gqd /events.
func TestFilterEvents(t *testing.T) {
	now := time.Duration(0)
	r := New(testClock(&now))
	rec := r.Events()
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Second
		typ, subj := EvTCPSegment, "a"
		if i%2 == 1 {
			typ, subj = EvTCPRetransmit, "b"
		}
		rec.Emit(typ, subj, int64(i), 0, 0)
	}

	if got := rec.Query(EventFilter{}); len(got) != 10 {
		t.Fatalf("zero filter kept %d of 10", len(got))
	}
	if got := rec.Query(EventFilter{Type: EvTCPRetransmit}); len(got) != 5 || got[0].Subject != "b" {
		t.Fatalf("type filter = %+v", got)
	}
	if got := rec.Query(EventFilter{Subject: "a"}); len(got) != 5 || got[0].V1 != 0 {
		t.Fatalf("subject filter = %+v", got)
	}
	if got := rec.Query(EventFilter{Since: 7 * time.Second}); len(got) != 3 || got[0].V1 != 7 {
		t.Fatalf("since filter = %+v", got)
	}
	got := rec.Query(EventFilter{Type: EvTCPSegment, Since: 3 * time.Second, Last: 2})
	if len(got) != 2 || got[0].V1 != 6 || got[1].V1 != 8 {
		t.Fatalf("combined filter = %+v", got)
	}
	if got := rec.Query(EventFilter{Subject: "nope"}); len(got) != 0 {
		t.Fatalf("non-matching filter kept %d events", len(got))
	}
	if got := rec.Query(EventFilter{Last: 3}); len(got) != 3 || got[0].V1 != 7 {
		t.Fatalf("last filter = %+v", got)
	}
}

// FuzzLoadSnapshot feeds LoadSnapshot arbitrary bytes. It must never
// panic, and a snapshot it accepts must re-encode to JSON that loads
// again and encodes the same: the replay tools (dvis -from) can write
// back what they read.
func FuzzLoadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		s.Span()
		snapshotMetric(s, "tcp_rtt_seconds", "node", "prem-src")
		s.EventsOfType("mpi-recv")
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("loaded snapshot does not re-encode: %v", err)
		}
		back, err := LoadSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not load: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("snapshot changed across a reload (err %v):\n%s\n%s", err, enc, again)
		}
	})
}
