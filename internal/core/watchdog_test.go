package gq_test

import (
	gq "mpichgq/internal/core"
	"testing"
	"time"

	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// healingRun streams a 10 Mb/s premium flow under blaster contention
// through a bottleneck flap [downAt, upAt), with or without the
// self-healing watchdog, and returns the payload bytes received after
// measureFrom plus the watchdog (nil when heal is false). mkGate, when
// non-nil, builds a RepairGate for the watchdog from the testbed's
// kernel (the control-plane breaker hookup).
func healingRun(t *testing.T, heal bool, downAt, upAt, measureFrom, dur time.Duration,
	mkGate func(*sim.Kernel) gq.RepairGate) (units.ByteSize, *gq.Watchdog) {
	t.Helper()
	const target = 10 * units.Mbps
	const msg = 25 * units.KB
	tb := garnet.New(1)
	faults.NewScenario("flap").Flap("edge1-core", downAt, upAt).MustApply(tb.Net, faults.Targets{})
	bl := &trafficgen.UDPBlaster{Rate: 160 * units.Mbps, Jitter: 0.1}
	if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		t.Fatal(err)
	}
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)
	var lateBytes units.ByteSize
	var w *gq.Watchdog
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
			if heal {
				wd, err := agent.NewWatchdog(r, pc, target)
				if err != nil {
					t.Error(err)
					return
				}
				if mkGate != nil {
					wd.Gate = mkGate(tb.K)
				}
				w = wd
				ctx.SpawnChild("watchdog", func(wctx *sim.Ctx) {
					wd.Run(wctx, 250*time.Millisecond, dur)
				})
			}
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
	return lateBytes, w
}

func TestWatchdogRepairsAfterFlap(t *testing.T) {
	const downAt, upAt = 6 * time.Second, 10 * time.Second
	const measureFrom, dur = 12 * time.Second, 20 * time.Second
	window := dur - measureFrom
	healed, w := healingRun(t, true, downAt, upAt, measureFrom, dur, nil)
	plain, _ := healingRun(t, false, downAt, upAt, measureFrom, dur, nil)
	healedRate := units.RateOf(healed, window)
	plainRate := units.RateOf(plain, window)
	if w.Repairs()+w.Upgrades() < 1 {
		t.Fatalf("watchdog made no repairs (repairs=%d upgrades=%d)", w.Repairs(), w.Fallbacks())
	}
	// Post-recovery the healed flow must be near its 10 Mb/s target
	// again; the unhealed one lost enforcement when the reservation
	// degraded and stays crushed by the blaster.
	if healedRate < 7*units.Mbps {
		t.Fatalf("healed post-recovery rate = %v, want near 10 Mb/s", healedRate)
	}
	if float64(plainRate) > 0.5*float64(healedRate) {
		t.Fatalf("healing ineffective: healed %v vs unhealed %v", healedRate, plainRate)
	}
}

// TestWatchdogRebindRacesRepairEpisode pins the race between the
// rank-restart observer and an in-flight repair episode. A bottleneck
// flap degrades the premium reservation and puts the watchdog into
// repairLoop (failing wd.attempt spans on the backoff schedule); while
// that episode is still open, the peer rank crashes and restarts, so
// RankRestarted sets the rebind flag mid-episode. The contract: the
// episode resolves on its own terms first, and the rebind is processed
// exactly once afterward — neither lost (the flag survives the
// episode) nor doubled (one restart, one rebuild).
func TestWatchdogRebindRacesRepairEpisode(t *testing.T) {
	const (
		downAt, upAt       = 2 * time.Second, 8 * time.Second
		crashAt, restartAt = 4 * time.Second, 5 * time.Second
		dur                = 12 * time.Second
	)
	const target = 10 * units.Mbps
	const msg = 25 * units.KB
	tb := garnet.New(1)
	tb.K.Tracer().SetCapacity(1 << 16)
	tb.K.Tracer().SetEnabled(true)
	faults.NewScenario("flap").Flap("edge1-core", downAt, upAt).MustApply(tb.Net, faults.Targets{})
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)

	var w *gq.Watchdog
	// The pair comm outlives rank incarnations (the figure H idiom):
	// the restarted peer rejoins the same handle.
	var comms [2]*mpi.Comm
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		id := r.ID()
		if r.Epoch() == 0 {
			c, err := r.PairComm(ctx, 1-id)
			if err != nil {
				t.Error(err)
				return
			}
			comms[id] = c
		}
		pc := comms[id]
		peer := 1 - r.RankIn(pc)
		if id == 0 {
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
			// A dense backoff keeps wd.attempt spans flowing across the
			// whole outage, so the restart provably lands between two
			// failed attempts of the same episode.
			wd.Backoff = gq.NewBackoff(sim.NewRNG(tb.K.RNG().Int63()),
				250*time.Millisecond, time.Second)
			w = wd
			ctx.SpawnChild("watchdog", func(wctx *sim.Ctx) {
				wd.Run(wctx, 250*time.Millisecond, dur)
			})
			gap := target.TimeToSend(msg)
			for ctx.Now() < dur {
				if err := r.Send(ctx, pc, peer, 0, msg, nil); err != nil {
					ctx.Sleep(100 * time.Millisecond)
					continue
				}
				ctx.Sleep(gap)
			}
			return
		}
		for ctx.Now() < dur && !r.Crashed() {
			if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
				ctx.Sleep(100 * time.Millisecond)
			}
		}
	})
	tb.K.At(crashAt, sim.PrioNormal, func() { job.CrashRank(1) })
	tb.K.At(restartAt, sim.PrioNormal, func() { job.RestartRank(1, nil) })
	if err := tb.K.RunUntil(dur); err != nil {
		t.Fatal(err)
	}

	// Counters: one resolved repair episode, one rebind — in that order,
	// with the rebind neither dropped nor processed twice.
	if got := w.Repairs() + w.Upgrades(); got != 1 {
		t.Fatalf("resolved episodes = %d (repairs=%d upgrades=%d), want exactly 1",
			got, w.Repairs(), w.Upgrades())
	}
	if w.Rebinds() != 1 {
		t.Fatalf("rebinds = %d, want exactly 1 (flag lost or double-processed)", w.Rebinds())
	}

	// Spans carry the ordering proof. The single outage must bracket the
	// restart (the race actually happened mid-episode) and resolve as
	// breached; the single rebind must begin only after the outage ends.
	tr := tb.K.Tracer()
	outages := tr.Query(spans.Filter{Name: "wd.outage"})
	if len(outages) != 1 {
		t.Fatalf("wd.outage spans = %d, want 1", len(outages))
	}
	outage := outages[0]
	if outage.Status != spans.StatusBreached {
		t.Fatalf("outage status = %v, want breached (resolved episode)", outage.Status)
	}
	if outage.Start >= restartAt || outage.Start+outage.Dur <= restartAt {
		t.Fatalf("restart at %v did not land inside the episode [%v, %v)",
			restartAt, outage.Start, outage.Start+outage.Dur)
	}
	attempts := tr.Query(spans.Filter{Trace: outage.Trace, Name: "wd.attempt"})
	before := 0
	for _, a := range attempts {
		if a.Start < restartAt {
			before++
		}
	}
	if len(attempts) == 0 || before == 0 || before == len(attempts) {
		t.Fatalf("wd.attempt spans do not straddle the restart: %d total, %d before %v",
			len(attempts), before, restartAt)
	}
	rebinds := tr.Query(spans.Filter{Name: "wd.rebind"})
	if len(rebinds) != 1 {
		t.Fatalf("wd.rebind spans = %d, want 1", len(rebinds))
	}
	if rebinds[0].Start < outage.Start+outage.Dur {
		t.Fatalf("rebind began at %v, inside the still-open episode ending %v",
			rebinds[0].Start, outage.Start+outage.Dur)
	}
	if rebinds[0].Status != spans.StatusOK {
		t.Fatalf("rebind status = %v, want ok (rebuild must succeed post-flap)", rebinds[0].Status)
	}
}

func TestWatchdogFallsBackThenUpgrades(t *testing.T) {
	if testing.Short() {
		t.Skip("long outage run")
	}
	// An outage long enough that FallbackAfter repair attempts fail:
	// the watchdog demotes the flow to best effort, keeps probing at
	// the capped interval, and upgrades once the link returns.
	const downAt, upAt = 6 * time.Second, 16 * time.Second
	const measureFrom, dur = 19 * time.Second, 26 * time.Second
	healed, w := healingRun(t, true, downAt, upAt, measureFrom, dur, nil)
	if w.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", w.Fallbacks())
	}
	if w.Upgrades() != 1 {
		t.Fatalf("upgrades = %d, want 1", w.Upgrades())
	}
	rate := units.RateOf(healed, dur-measureFrom)
	if rate < 7*units.Mbps {
		t.Fatalf("post-upgrade rate = %v, want near 10 Mb/s", rate)
	}
}
