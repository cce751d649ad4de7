package trace

import (
	"strings"
	"testing"
	"time"

	"mpichgq/internal/units"
)

func TestBandwidthTraceBuckets(t *testing.T) {
	tr := NewBandwidthTrace(time.Second)
	// 125000 bytes in second 0 => 1000 Kb/s.
	tr.Add(200*time.Millisecond, 125000)
	// Nothing in second 1; 250000 bytes in second 2 => 2000 Kb/s.
	tr.Add(2500*time.Millisecond, 250000)
	s := tr.Series("x")
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	if s.Points[0].V != 1000 || s.Points[1].V != 0 || s.Points[2].V != 2000 {
		t.Fatalf("series = %v", s.Points)
	}
	if s.Points[0].T != 500*time.Millisecond {
		t.Fatalf("midpoint = %v, want 500ms", s.Points[0].T)
	}
	if tr.Total() != 375000 {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestBandwidthTraceMeanRate(t *testing.T) {
	tr := NewBandwidthTrace(time.Second)
	for i := 0; i < 10; i++ {
		tr.Add(time.Duration(i)*time.Second+time.Millisecond, 125000) // 1 Mb/s each second
	}
	got := tr.MeanRate(0, 10*time.Second)
	if got < 999*units.Kbps || got > 1001*units.Kbps {
		t.Fatalf("mean rate = %v, want ~1Mb/s", got)
	}
	// Sub-window.
	got = tr.MeanRate(2*time.Second, 4*time.Second)
	if got < 999*units.Kbps || got > 1001*units.Kbps {
		t.Fatalf("window mean = %v, want ~1Mb/s", got)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Name: "s", Points: []Point{{T: 0, V: 1}, {T: time.Second, V: 3}, {T: 2 * time.Second, V: 2}}}
	if s.Mean() != 2 {
		t.Fatalf("mean = %v", s.Mean())
	}
	sub := s.Between(time.Second, 2*time.Second)
	if len(sub.Points) != 1 || sub.Points[0].V != 3 {
		t.Fatalf("between = %v", sub.Points)
	}
	if !strings.Contains(s.String(), "# s") {
		t.Fatal("String missing header")
	}
}

func TestSeqTrace(t *testing.T) {
	var tr SeqTrace
	tr.Record(0, 0, 1000, false)
	tr.Record(time.Second, 1000, 1000, false)
	tr.Record(2*time.Second, 0, 1000, true)
	if len(tr.Points) != 3 || !tr.Points[2].Retx || tr.Points[1].Seq != 1000 {
		t.Fatalf("points = %+v", tr.Points)
	}
	if got := len(tr.Between(500*time.Millisecond, 3*time.Second)); got != 2 {
		t.Fatalf("between = %d, want 2", got)
	}
}

func TestSeqTraceBurstStats(t *testing.T) {
	var tr SeqTrace
	// Burst of 5 packets within 10 ms, then quiet, then one packet.
	for i := 0; i < 5; i++ {
		tr.Record(time.Duration(i)*2*time.Millisecond, int64(i)*1000, 1000, false)
	}
	tr.Record(time.Second, 5000, 1000, false)
	if got := tr.BurstStats(50 * time.Millisecond); got != 5000 {
		t.Fatalf("max burst = %d, want 5000", got)
	}
	if got := tr.BurstStats(time.Microsecond); got != 1000 {
		t.Fatalf("tiny window burst = %d, want 1000", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tbl.Add("xxxxx", "1")
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Fatalf("header misaligned: %q", lines[1])
	}
}
