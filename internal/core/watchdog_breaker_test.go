// Integration between the self-healing watchdog and the control-plane
// circuit breaker. Lives in an external test package: ctrlplane imports
// core (for Backoff and RepairGate), so wiring a real Breaker into a
// Watchdog can only be tested from outside package gq.
package gq_test

import (
	"testing"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// A ctrlplane.Breaker is usable as the watchdog's repair gate: open
// rejects, half-open admits a probe after the cooldown, a probe success
// closes it again.
func TestBreakerImplementsRepairGate(t *testing.T) {
	k := sim.New(1)
	b := ctrlplane.NewBreaker(k, "dom1", 2, time.Second)
	var gate gq.RepairGate = b
	if !gate.Allow() {
		t.Fatal("closed breaker must allow repairs")
	}
	b.Failure()
	if !gate.Allow() {
		t.Fatal("one failure below threshold must not gate repairs")
	}
	b.Failure()
	if gate.Allow() {
		t.Fatal("tripped breaker must gate repairs")
	}
	if b.State() != ctrlplane.BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !gate.Allow() {
		t.Fatal("breaker past its cooldown must admit a probe")
	}
	if b.State() != ctrlplane.BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.Success()
	if b.State() != ctrlplane.BreakerClosed {
		t.Fatalf("state = %v, want closed after probe success", b.State())
	}
}

// countingGate wraps the breaker so the test can see how often the
// repair loop consulted it without relying on the flight recorder.
type countingGate struct {
	b               *ctrlplane.Breaker
	denials, allows int
}

func (g *countingGate) Allow() bool {
	if g.b.Allow() {
		g.allows++
		return true
	}
	g.denials++
	return false
}

// Full-stack run: a link flap degrades the premium flow while the
// domain's circuit breaker is tripped (the RM is timing out on the
// control plane). The watchdog must not hammer the RM — every attempt
// is vetoed by the breaker, the flow falls back to best effort, and
// once the cooldown admits a probe after the link returns, the flow is
// upgraded back to premium.
func TestWatchdogRespectsCircuitBreaker(t *testing.T) {
	if testing.Short() {
		t.Skip("long outage run")
	}
	const target = 10 * units.Mbps
	const msg = 25 * units.KB
	const downAt, upAt = 6 * time.Second, 16 * time.Second
	const measureFrom, dur = 19 * time.Second, 26 * time.Second

	tb := garnet.New(1)
	tb.K.Metrics().Events().SetCapacity(1 << 20) // keep every event of the run
	faults.NewScenario("flap").Flap("edge1-core", downAt, upAt).MustApply(tb.Net, faults.Targets{})
	bl := &trafficgen.UDPBlaster{Rate: 160 * units.Mbps, Jitter: 0.1}
	if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		t.Fatal(err)
	}

	// Threshold 1: the first deadline-exhausted control call trips the
	// breaker. The cooldown is sized so the first half-open probe lands
	// after the link is back.
	br := ctrlplane.NewBreaker(tb.K, "campus", 1, upAt-downAt+500*time.Millisecond)
	gate := &countingGate{b: br}
	// The RM goes dark with the link: a control call fails its deadline
	// shortly after the outage starts and trips the breaker.
	tb.K.At(downAt+200*time.Millisecond, sim.PrioNormal, func() { br.Failure() })

	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)
	var w *gq.Watchdog
	var lateBytes units.ByteSize
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			t.Error(err)
			return
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: target}
			if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
				t.Error(err)
				return
			}
			wd, err := agent.NewWatchdog(r, pc, target)
			if err != nil {
				t.Error(err)
				return
			}
			wd.Gate = gate
			w = wd
			ctx.SpawnChild("watchdog", func(wctx *sim.Ctx) {
				wd.Run(wctx, 250*time.Millisecond, dur)
			})
			gap := target.TimeToSend(msg)
			for ctx.Now() < dur {
				if err := r.Send(ctx, pc, peer, 0, msg, nil); err != nil {
					return
				}
				ctx.Sleep(gap)
			}
			return
		}
		for {
			m, err := r.Recv(ctx, pc, peer, 0)
			if err != nil {
				return
			}
			if ctx.Now() >= measureFrom {
				lateBytes += m.Len
			}
		}
	})
	if err := tb.K.RunUntil(dur); err != nil {
		t.Fatal(err)
	}

	if gate.denials < gq.FallbackAfter {
		t.Fatalf("breaker denied %d attempts, want at least FallbackAfter=%d",
			gate.denials, gq.FallbackAfter)
	}
	if gate.denials > 64 {
		t.Fatalf("gate consulted %d times during the outage: repair loop is hot-looping",
			gate.denials)
	}
	// Until the cooldown admitted the half-open probe, no repair attempt
	// may have reached the RM.
	gateOpensAt := downAt + 200*time.Millisecond + br.Cooldown
	gated := 0
	for _, ev := range tb.K.Metrics().Events().Snapshot() {
		if ev.Type != metrics.EvQosRepair {
			continue
		}
		switch ev.Subject {
		case "gated":
			gated++
		case "repair", "upgrade":
			if ev.At < gateOpensAt {
				t.Fatalf("%s at %v: repair attempt reached the RM while the breaker was open",
					ev.Subject, ev.At)
			}
		}
	}
	if gated < gq.FallbackAfter {
		t.Fatalf("recorded %d gated events, want at least %d", gated, gq.FallbackAfter)
	}
	if w.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", w.Fallbacks())
	}
	if w.Upgrades() != 1 {
		t.Fatalf("upgrades = %d, want 1 after the half-open probe", w.Upgrades())
	}
	if trips, ok := tb.K.Metrics().CounterValue("ctrl_breaker_trips_total", "rm", "campus"); !ok || trips != 1 {
		t.Fatalf("ctrl_breaker_trips_total{campus} = %d (ok=%v), want 1", trips, ok)
	}
	if br.State() == ctrlplane.BreakerOpen {
		t.Fatalf("breaker still open at end of run, want half-open or closed")
	}
	rate := units.RateOf(lateBytes, dur-measureFrom)
	if rate < 7*units.Mbps {
		t.Fatalf("post-upgrade rate = %v, want near 10 Mb/s", rate)
	}
}
