package gq_test

import (
	gq "mpichgq/internal/core"
	"testing"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// timedGate vetoes repair attempts until openAt — a deterministic
// stand-in for a control-plane circuit breaker that stays open for the
// duration of an RM outage.
type timedGate struct {
	k       *sim.Kernel
	openAt  time.Duration
	denials int
	allows  int
}

func (g *timedGate) Allow() bool {
	if g.k.Now() < g.openAt {
		g.denials++
		return false
	}
	g.allows++
	return true
}

// A gated watchdog must not touch the resource manager: every attempt
// during the outage is vetoed (counting toward fallback, so the flow
// still demotes to best effort), the probe cadence stays on the backoff
// schedule instead of hot-looping, and once the gate opens the flow is
// upgraded back.
func TestWatchdogRespectsRepairGate(t *testing.T) {
	if testing.Short() {
		t.Skip("long outage run")
	}
	const downAt, upAt = 6 * time.Second, 16 * time.Second
	const measureFrom, dur = 19 * time.Second, 26 * time.Second
	var gate *timedGate
	var rec *metrics.Recorder
	healed, w := healingRun(t, true, downAt, upAt, measureFrom, dur,
		func(k *sim.Kernel) gq.RepairGate {
			rec = k.Metrics().Events()
			rec.SetCapacity(1 << 20) // keep every event of the run
			gate = &timedGate{k: k, openAt: upAt}
			return gate
		})
	if gate == nil {
		t.Fatal("gate was never installed")
	}
	if gate.denials < gq.FallbackAfter {
		t.Fatalf("gate denied %d attempts, want at least FallbackAfter=%d",
			gate.denials, gq.FallbackAfter)
	}
	// Backoff caps repair attempts at one per 4s; over a 10s outage a
	// hot loop would consult the gate thousands of times.
	if gate.denials > 64 {
		t.Fatalf("gate consulted %d times during a 10s outage: repair loop is hot-looping",
			gate.denials)
	}
	// While the gate was closed, the repair loop must never have reached
	// the RM: no repair/upgrade events before the gate opened.
	gated := 0
	for _, ev := range rec.Snapshot() {
		if ev.Type != metrics.EvQosRepair {
			continue
		}
		switch ev.Subject {
		case gq.PhaseGated:
			gated++
		case gq.PhaseRepair, gq.PhaseUpgrade:
			if ev.At < upAt {
				t.Fatalf("%s at %v: repair attempt reached the RM while gated", ev.Subject, ev.At)
			}
		}
	}
	if gated < gq.FallbackAfter {
		t.Fatalf("recorded %d gated events, want at least %d", gated, gq.FallbackAfter)
	}
	if w.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1 (gated attempts still drive fallback)", w.Fallbacks())
	}
	if w.Upgrades() != 1 {
		t.Fatalf("upgrades = %d, want 1 after the gate opened", w.Upgrades())
	}
	if gate.allows == 0 {
		t.Fatal("gate never admitted a probe after opening")
	}
	rate := units.RateOf(healed, dur-measureFrom)
	if rate < 7*units.Mbps {
		t.Fatalf("post-upgrade rate = %v, want near 10 Mb/s", rate)
	}
}
