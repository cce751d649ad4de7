package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(6)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestRNGJitterRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		j := r.Jitter(0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("Jitter(0.1) out of range: %v", j)
		}
	}
}
