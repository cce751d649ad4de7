package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// figFTarget is the premium flow's payload goodput target. It is sized
// to fit the primary WAN path's EF budget (0.7 x 45 Mb/s) but not the
// quarter-rate backup path's (0.7 x 11.25 Mb/s), so re-admission over
// the failover route is refused and the self-healing agent has to fall
// back to best effort until the primary link returns.
const figFTarget = 16 * units.Mbps

// figFReserve is the premium reservation. The headroom over the
// pacing target is Table 1's lesson applied: after the outage the TCP
// flow is burstier than a steady-state one, and a reservation cut
// exactly to the mean lets the policer clip its recovery bursts.
const figFReserve = 18 * units.Mbps

// figFWANRate is the remote site's primary WAN capacity.
const figFWANRate = 45 * units.Mbps

// FigureFCurve is one goodput timeline through the WAN flap.
type FigureFCurve struct {
	Name   string
	Series trace.Series
	// Mean payload goodput before the flap, during the outage, and in
	// the recovery window after repairs have settled.
	PreFlap, Outage, Recovery units.BitRate
	// RecoveryFrac is Recovery divided by the goodput target.
	RecoveryFrac float64
}

// FigureFResult holds the robustness figure: the same premium MPI flow
// run through a WAN link flap under three policies.
type FigureFResult struct {
	Target   units.BitRate
	Down, Up time.Duration

	NoQoS  FigureFCurve // best effort throughout
	Static FigureFCurve // premium reservation, no self-healing
	Healed FigureFCurve // premium reservation + watchdog repair loop

	// Watchdog activity during the self-healing run.
	Repairs, Fallbacks, Upgrades int
}

// RunFigureF runs the fault-injection experiment: a 16 Mb/s premium
// MPI flow to a remote site whose primary WAN link flaps down for 12
// seconds, with a UDP generator overwhelming the same path throughout.
// The testbed is built with backup paths, so when the link fails
// traffic re-routes onto a quarter-capacity standby route.
//
// Three runs, identical except for QoS policy:
//
//   - no QoS: best effort before, during, and after the outage — the
//     generator crushes it everywhere.
//   - static QoS: a premium reservation that degrades when its path
//     breaks and is never repaired, so the flow is effectively best
//     effort from the outage onward.
//   - self-healing: the watchdog notices the breach, retries
//     re-admission with backoff (refused: the target exceeds the
//     backup path's EF budget), falls back to best effort, and
//     upgrades back to premium once the primary link recovers.
func RunFigureF(cfg Config) FigureFResult {
	cfg = cfg.withDefaults()
	res := FigureFResult{
		Target: figFTarget,
		Down:   cfg.scale(20 * time.Second),
		Up:     cfg.scale(32 * time.Second),
	}
	type out struct {
		curve FigureFCurve
		wd    *gq.Watchdog
	}
	variants := []struct {
		name          string
		reserve, heal bool
	}{
		{"no QoS", false, false},
		{"static QoS", true, false},
		{"self-healing QoS", true, true},
	}
	outs := Sweep(cfg.Parallel, len(variants), func(i int) out {
		v := variants[i]
		c, wd := runFigFCurve(cfg, v.name, v.reserve, v.heal)
		return out{c, wd}
	})
	res.NoQoS, res.Static, res.Healed = outs[0].curve, outs[1].curve, outs[2].curve
	wd := outs[2].wd
	res.Repairs = wd.Repairs()
	res.Fallbacks = wd.Fallbacks()
	res.Upgrades = wd.Upgrades()
	return res
}

// runFigFCurve runs one policy variant and reduces its timeline to the
// three phase means.
func runFigFCurve(cfg Config, name string, reserve, heal bool) (FigureFCurve, *gq.Watchdog) {
	const msg = 25 * units.KB
	down, up, dur := cfg.scale(20*time.Second), cfg.scale(32*time.Second), cfg.scale(60*time.Second)

	tb := garnet.NewWithOptions(garnet.Options{Seed: cfg.Seed, BackupPaths: true})
	defer tb.Close()
	far := tb.AddSite("far", figFWANRate, 5*time.Millisecond)
	faults.NewScenario("figF-wan-flap").
		Flap("core-far-edge", down, up).
		MustApply(tb.Net, faults.Targets{})

	// The generator shares the premium flow's whole path, including
	// the flapping WAN link and its backup.
	bl := trafficgen.NewBackground(trafficgen.BackgroundOptions{
		Rate: ContentionRate, PacketSize: 1000, Jitter: 0.1,
		Fluid: cfg.FluidBackground,
	})
	if err := bl.Run(tb.CompSrc, far, 9000); err != nil {
		panic(err)
	}

	// Buffers above the ~23 KB bandwidth-delay product of the 11.5 ms
	// round trip, so the premium flow is never window-limited.
	opts := tcpsim.DefaultOptions()
	opts.SndBuf = units.MB
	opts.RcvBuf = units.MB
	job := tb.NewMPIJob([]*netsim.Node{tb.PremSrc, far}, opts, mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)
	bw := trace.NewBandwidthTrace(cfg.scale(time.Second))
	var wd *gq.Watchdog

	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			if reserve {
				attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: figFReserve}
				if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
					panic(err)
				}
			}
			if heal {
				w, err := agent.NewWatchdog(r, pc, figFTarget)
				if err != nil {
					panic(err)
				}
				// Pace repair attempts on the experiment's own clock.
				w.Backoff = gq.NewBackoff(sim.NewRNG(tb.K.RNG().Int63()),
					cfg.scale(500*time.Millisecond), cfg.scale(4*time.Second))
				wd = w
				ctx.SpawnChild("figF-watchdog", func(wctx *sim.Ctx) {
					w.Run(wctx, cfg.scale(250*time.Millisecond), dur)
				})
			}
			gap := figFTarget.TimeToSend(msg)
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
			bw.Add(ctx.Now(), m.Len)
		}
	})
	if err := tb.K.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure F (%s): %v", name, err))
	}

	c := FigureFCurve{
		Name:     name,
		Series:   bw.Series(name),
		PreFlap:  bw.MeanRate(cfg.scale(5*time.Second), down),
		Outage:   bw.MeanRate(down+cfg.scale(2*time.Second), up),
		Recovery: bw.MeanRate(cfg.scale(45*time.Second), dur),
	}
	c.RecoveryFrac = float64(c.Recovery) / float64(figFTarget)
	return c, wd
}

// FigureFTable renders the per-phase goodput means.
func FigureFTable(r FigureFResult) trace.Table {
	t := trace.Table{Headers: []string{"policy", "pre-flap", "outage", "recovery", "recovered"}}
	for _, c := range []FigureFCurve{r.NoQoS, r.Static, r.Healed} {
		t.Add(c.Name, c.PreFlap.String(), c.Outage.String(), c.Recovery.String(),
			fmt.Sprintf("%.0f%%", 100*c.RecoveryFrac))
	}
	return t
}
