package gara

import (
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/sim"
)

// benchSizes are the slot-table sizes the micro benchmarks sweep.
var benchSizes = []int{100, 1000, 10000}

// benchTable fills a table with n slots that all fit: starts uniform
// over n×10 s, so about 33 slots overlap at any instant whatever n is,
// durations 1 to 10 minutes and amounts 50 to 1550. It also returns
// 1024 probe windows drawn the same way; each spans about 66 steps.
func benchTable(tb testing.TB, n int) (*SlotTable, []slot) {
	rng := sim.NewRNG(1)
	horizon := int64(n) * int64(10*time.Second)
	draw := func() slot {
		start := time.Duration(rng.Int63() % horizon)
		return slot{
			start:  start,
			end:    start + time.Minute + time.Duration(rng.Int63()%int64(9*time.Minute)),
			amount: float64(50 + rng.Intn(1501)),
		}
	}
	st := NewSlotTable(1e12)
	for i := 0; i < n; i++ {
		s := draw()
		if err := st.Insert(uint64(i+1), s.start, s.end, s.amount); err != nil {
			tb.Fatal(err)
		}
	}
	probes := make([]slot, 1024)
	for i := range probes {
		probes[i] = draw()
	}
	return st, probes
}

// BenchmarkSlotTableAvailable measures one admission check against an
// n-slot table; the capacity admits everything, so every check scans
// its whole window.
func BenchmarkSlotTableAvailable(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st, probes := benchTable(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				if !st.Available(p.start, p.end, p.amount) {
					b.Fatal("probe refused")
				}
			}
		})
	}
}

// BenchmarkSlotTableInsertRemove measures booking one slot into an
// n-slot table and releasing it again.
func BenchmarkSlotTableInsertRemove(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			st, probes := benchTable(b, n)
			id := uint64(n + 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				if err := st.Insert(id, p.start, p.end, p.amount); err != nil {
					b.Fatal(err)
				}
				if !st.Remove(id) {
					b.Fatal("remove missed")
				}
			}
		})
	}
}

// TestSlotTableZeroAlloc guards the read path: admission checks and
// committed-level queries on a populated table allocate nothing.
func TestSlotTableZeroAlloc(t *testing.T) {
	st, probes := benchTable(t, 1000)
	i := 0
	read := func() {
		p := probes[i%len(probes)]
		i++
		st.Available(p.start, p.end, p.amount)
		st.CommittedAt(p.start)
	}
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("Available+CommittedAt allocate %.1f objects per call, want 0", allocs)
	}
}
