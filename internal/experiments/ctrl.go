package experiments

import (
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Ctrl is the operator control-plane scenario running on a kernel:
// figure G's two domains behind a lossy control channel with one RM
// crash/restart, a driver issuing two-phase co-reservations for the
// whole run, and a tenant reservation storm pressing dom1's admission
// queue. `gqd -scenario ctrl` serves it live and `gqctl ctrl` dumps
// its health once it has run.
type Ctrl struct {
	Plane *ctrlplane.Plane
	// RMs maps each domain name (dom1, dom2) to its network RM.
	RMs   map[string]*gara.NetworkRM
	Storm *trafficgen.ReservationStorm
	// OK and Failed count the driver's co-reservations so far.
	OK, Failed int
}

// StartCtrl builds the ctrl scenario on k, to run until dur: the
// plane with figure G's protocol timescales and a finite admission
// ladder, 25% control-channel loss in both domains for the whole run,
// a crash of dom2 at 2/5 of dur and its restart at 1/2, the
// co-reservation driver and the storm. Run k to dur, then read the
// handle.
func StartCtrl(k *sim.Kernel, dur time.Duration) *Ctrl {
	r := newTwoDomain(k)
	opts := figGProtocol()
	// Finite broker capacity (500 req/s per domain) with the full
	// overload-control ladder, so the storm below actually queues,
	// sheds, and browns out instead of executing instantaneously.
	opts.Admission = ctrlplane.Admission{
		ServiceTime:  2 * time.Millisecond,
		QueueLimit:   32,
		CoDelTarget:  40 * time.Millisecond,
		DropExpired:  true,
		BrownoutHi:   24,
		BrownoutLo:   6,
		BrownoutHold: 2 * time.Second,
	}
	plane := ctrlplane.NewPlane(k, opts)
	plane.AddDomain("dom1", r.g1, r.rm1)
	plane.AddDomain("dom2", r.g2, r.rm2)
	co := plane.Coordinator()
	c := &Ctrl{Plane: plane, RMs: map[string]*gara.NetworkRM{"dom1": r.rm1, "dom2": r.rm2}}

	// Moderate loss the whole run, plus one crash/restart at 40%/50%
	// of the horizon — enough chaos that retries, rollbacks, and lease
	// expiries all appear in the trace stream. The scenario's name
	// keys its fault spans' trace ID, which gqd's /traces serves.
	sc := faults.NewScenario("gqd-ctrl").
		CtrlLoss("dom1", 0, dur, 0.25).
		CtrlLoss("dom2", 0, dur, 0.25).
		CtrlCrash(dur*2/5, "dom2").
		CtrlRestart(dur/2, "dom2")
	sc.MustApply(r.net, faults.Targets{Ctrl: plane})

	k.Spawn("gqd-ctrl-driver", func(ctx *sim.Ctx) {
		for ctx.Now() < dur {
			spec := gara.Spec{
				Type: gara.ResourceNetwork,
				// Premium, which no brownout level sheds.
				Class:     gara.ClassPremium,
				Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.hostB.Addr(), netsim.ProtoUDP),
				Bandwidth: 10 * units.Mbps,
				Start:     ctx.Now(),
				Duration:  20 * time.Second,
			}
			mr, err := co.Reserve(ctx, spec)
			if err != nil {
				c.Failed++
			} else {
				c.OK++
				ctx.Sleep(time.Second)
				_ = mr.Cancel(ctx)
			}
			ctx.Sleep(1500 * time.Millisecond)
		}
	})

	// A tenant storm bursting past dom1's broker capacity: adaptive
	// AIMD clients plus open-loop Poisson arrivals, a best-effort-heavy
	// class mix and short windows, so admission queueing, shedding,
	// and brownout all show up.
	c.Storm = &trafficgen.ReservationStorm{
		Conns:    []*ctrlplane.Conn{plane.AddTenantConn("dom1", "storm")},
		Rate:     650,
		Clients:  2,
		Adaptive: true,
		Stop:     dur,
		Spec: func(i int) gara.Spec {
			cls := gara.ClassBestEffort
			if i%3 == 0 {
				cls = gara.ClassNormal
			}
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     cls,
				Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.c1.Addr(), netsim.ProtoUDP),
				Bandwidth: units.Mbps,
				Duration:  2 * time.Second,
			}
		},
	}
	c.Storm.Run(k)
	return c
}
