package gq

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
)

func TestBackoffDeterministic(t *testing.T) {
	b1 := NewBackoff(sim.NewRNG(42), 100*time.Millisecond, 10*time.Second)
	b2 := NewBackoff(sim.NewRNG(42), 100*time.Millisecond, 10*time.Second)
	for i := 0; i < 12; i++ {
		d1, d2 := b1.Next(), b2.Next()
		if d1 != d2 {
			t.Fatalf("attempt %d: %v vs %v under same seed", i, d1, d2)
		}
	}
}

func TestBackoffJitterBoundedAndCapped(t *testing.T) {
	const base = 100 * time.Millisecond
	const max = 2 * time.Second
	b := NewBackoff(sim.NewRNG(7), base, max)
	ideal := float64(base)
	for i := 0; i < 20; i++ {
		if ideal > float64(max) {
			ideal = float64(max)
		}
		d := float64(b.Next())
		if d < (1-b.Jitter)*ideal || d > (1+b.Jitter)*ideal {
			t.Fatalf("attempt %d: %v outside jitter band around %v", i, time.Duration(d), time.Duration(ideal))
		}
		ideal *= backoffFactor
	}
	// Deep into the schedule the interval must sit at the cap (within
	// jitter), never beyond.
	for i := 0; i < 10; i++ {
		d := float64(b.Next())
		if d > (1+b.Jitter)*float64(max) {
			t.Fatalf("interval %v exceeds jittered cap", time.Duration(d))
		}
		if d < (1-b.Jitter)*float64(max) {
			t.Fatalf("interval %v below the cap band — schedule regressed", time.Duration(d))
		}
	}
}

func TestBackoffResetsAfterSuccess(t *testing.T) {
	b := NewBackoff(sim.NewRNG(3), 100*time.Millisecond, 10*time.Second)
	for i := 0; i < 6; i++ {
		b.Next()
	}
	if b.n != 6 {
		t.Fatalf("attempts = %d, want 6", b.n)
	}
	b.Reset()
	if b.n != 0 {
		t.Fatalf("attempts after reset = %d, want 0", b.n)
	}
	d := b.Next()
	if d < 80*time.Millisecond || d > 120*time.Millisecond {
		t.Fatalf("first interval after reset = %v, want ~100ms", d)
	}
}

func TestBackoffHintFloorsJitteredInterval(t *testing.T) {
	const base = 100 * time.Millisecond
	const max = 10 * time.Second
	b := NewBackoff(sim.NewRNG(11), base, max)
	// A hint far above the early schedule must floor the next interval
	// exactly: jitter may never pull the retry under the server's
	// retry-after, no matter what the RNG draws.
	for i := 0; i < 50; i++ {
		hint := 5 * time.Second
		b.Reset()
		b.Hint(hint)
		if d := b.Next(); d < hint {
			t.Fatalf("draw %d: interval %v below retry-after hint %v", i, d, hint)
		}
	}
	// A hint below the computed band leaves the schedule alone — the
	// jittered exponential already waits longer than the server asked.
	b.Reset()
	b.Hint(time.Millisecond)
	d := float64(b.Next())
	if d < (1-b.Jitter)*float64(base) || d > (1+b.Jitter)*float64(base) {
		t.Fatalf("small hint perturbed the schedule: %v outside jitter band around %v",
			time.Duration(d), base)
	}
	// The hint is one-shot: the interval after a floored one returns to
	// the (jittered) exponential schedule.
	b.Reset()
	b.Hint(5 * time.Second)
	b.Next()
	d = float64(b.Next())
	ideal := float64(base) * backoffFactor
	if d < (1-b.Jitter)*ideal || d > (1+b.Jitter)*ideal {
		t.Fatalf("hint leaked past one interval: %v outside band around %v",
			time.Duration(d), time.Duration(ideal))
	}
	// Reset clears a pending hint.
	b.Hint(5 * time.Second)
	b.Reset()
	d = float64(b.Next())
	if d < (1-b.Jitter)*float64(base) || d > (1+b.Jitter)*float64(base) {
		t.Fatalf("Reset kept the hint: %v outside jitter band around %v",
			time.Duration(d), base)
	}
}

func TestBackoffWithoutJitterIsExact(t *testing.T) {
	b := NewBackoff(nil, 100*time.Millisecond, time.Second)
	b.Jitter = 0
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second,
		time.Second,
	}
	for i, w := range want {
		if d := b.Next(); d != w {
			t.Fatalf("attempt %d = %v, want %v", i, d, w)
		}
	}
}
