package experiments

import (
	"fmt"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// figGBandwidth is each co-reservation's per-segment bandwidth.
const figGBandwidth = 10 * units.Mbps

// figGAttempts is how many sequential co-reservations each run issues.
const figGAttempts = 30

// FigureGPoint is one (loss probability, protocol) cell: how often
// two-domain co-reservation succeeded, and how much EF capacity sat
// orphaned — booked in a domain's slot table while the coordinator held
// no reservation (a failed attempt's or failed cancel's leftovers).
type FigureGPoint struct {
	Loss      float64
	Attempts  int
	Successes int
	// SuccessRate is Successes / Attempts.
	SuccessRate float64
	// LeakMB integrates orphaned committed capacity over the run, in
	// megabytes of EF capacity that no live reservation was entitled to.
	LeakMB float64
}

// FigureGResult compares the two-phase lease-backed protocol against
// naive one-shot co-reservation across control-channel loss rates, both
// runs including an RM crash/restart mid-experiment.
type FigureGResult struct {
	Losses   []float64
	TwoPhase []FigureGPoint
	Naive    []FigureGPoint
}

// RunFigureG runs the control-plane robustness figure: two
// administrative domains behind a lossy control channel (plus one RM
// crash/restart), issuing sequential finite-window co-reservations
// under increasing loss. The two-phase protocol prepares under a lease
// and commits, so a lost reply or a crash strands at most one lease
// TTL of capacity; the naive protocol books immediately and relies on
// best-effort cancels, so every lost rollback orphans a segment until
// its window expires.
func RunFigureG(cfg Config) FigureGResult {
	cfg = cfg.withDefaults()
	res := FigureGResult{Losses: []float64{0, 0.2, 0.4, 0.6}}
	// Two protocol variants per loss rate, every point on its own
	// kernel. Seeds keep the historical per-loss derivation (both
	// protocols see identical fault schedules at each loss rate).
	points := Sweep(cfg.Parallel, 2*len(res.Losses), func(i int) FigureGPoint {
		loss := res.Losses[i/2]
		seed := cfg.Seed + int64(100*(i/2))
		return runFigGPoint(cfg, i, seed, loss, i%2 == 0)
	})
	for i := range res.Losses {
		res.TwoPhase = append(res.TwoPhase, points[2*i])
		res.Naive = append(res.Naive, points[2*i+1])
	}
	return res
}

// twoDomain is the two-domain rig of figure G and the ctrl scenario,
// the same topology as the ctrlplane tests:
//
//	hostA - e1 - c1 ===border=== c2 - e2 - hostB
//
// dom1's RM owns hostA-e1-c1 and the border link, dom2's RM owns
// c2-e2-hostB, and each RM sits behind its own GARA.
type twoDomain struct {
	net              *netsim.Network
	hostA, c1, hostB *netsim.Node
	rm1, rm2         *gara.NetworkRM
	g1, g2           *gara.Gara
}

// newTwoDomain builds the rig on k.
func newTwoDomain(k *sim.Kernel) *twoDomain {
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	c2, e2, hostB := n.AddNode("c2"), n.AddNode("e2"), n.AddNode("hostB")
	l1 := n.Connect(hostA, e1, 100*units.Mbps, time.Millisecond)
	l2 := n.Connect(e1, c1, 100*units.Mbps, time.Millisecond)
	border := n.Connect(c1, c2, 50*units.Mbps, 2*time.Millisecond)
	l4 := n.Connect(c2, e2, 100*units.Mbps, time.Millisecond)
	l5 := n.Connect(e2, hostB, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	dom1 := diffserv.NewDomain(k)
	dom1.EnableEFAll(e1, c1)
	dom2 := diffserv.NewDomain(k)
	dom2.EnableEFAll(c2, e2)
	rm1 := gara.NewNetworkRM(n, dom1, 0.5)
	rm1.Scope = gara.LinkScope(l1, l2, border)
	rm2 := gara.NewNetworkRM(n, dom2, 0.5)
	rm2.Scope = gara.LinkScope(l4, l5)
	g1, g2 := gara.New(k), gara.New(k)
	g1.Register(rm1)
	g2.Register(rm2)
	return &twoDomain{net: n, hostA: hostA, c1: c1, hostB: hostB, rm1: rm1, rm2: rm2, g1: g1, g2: g2}
}

// figGProtocol is figure G's control-plane timescales: RPC timeout,
// end-to-end deadline and lease TTL. They are fixed constants, not
// scaled — they are properties of the control plane, not of the
// experiment length, so the figure keeps its character under -scale.
func figGProtocol() ctrlplane.Options {
	return ctrlplane.Options{
		Timeout:  50 * time.Millisecond,
		Deadline: 500 * time.Millisecond,
		LeaseTTL: 3 * time.Second,
	}
}

// runFigGPoint runs one protocol variant at one loss rate.
func runFigGPoint(cfg Config, pid int, seed int64, loss float64, twoPhase bool) FigureGPoint {
	hold := cfg.scale(time.Second)
	gap := cfg.scale(1500 * time.Millisecond)
	// Long windows against a short lease TTL: an orphaned two-phase
	// lease expires within the TTL, while a naive orphan stays booked
	// for the rest of its window.
	window := cfg.scale(40 * time.Second)
	dur := cfg.scale(160 * time.Second)

	k := sim.New(seed)
	defer k.Close()
	cfg.enableTrace(k)
	r := newTwoDomain(k)

	plane := ctrlplane.NewPlane(k, figGProtocol())
	plane.AddDomain("dom1", r.g1, r.rm1)
	plane.AddDomain("dom2", r.g2, r.rm2)
	co := plane.Coordinator()

	sc := faults.NewScenario("figG-chaos").
		CtrlLoss("dom1", 0, dur, loss).
		CtrlLoss("dom2", 0, dur, loss).
		CtrlCrash(cfg.scale(25*time.Second), "dom2").
		CtrlRestart(cfg.scale(28*time.Second), "dom2")
	sc.MustApply(r.net, faults.Targets{Ctrl: plane})

	pt := FigureGPoint{Loss: loss}
	// holding is true while the driver legitimately owns capacity — from
	// the start of an attempt until its cancel returns. Outside those
	// windows any committed EF capacity is a leak.
	holding := false
	k.Spawn("figG-driver", func(ctx *sim.Ctx) {
		for i := 0; i < figGAttempts; i++ {
			spec := gara.Spec{
				Type:      gara.ResourceNetwork,
				Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.hostB.Addr(), netsim.ProtoUDP),
				Bandwidth: figGBandwidth,
				Start:     ctx.Now(),
				Duration:  window,
			}
			holding = true
			var mr *ctrlplane.MultiRes
			var err error
			if twoPhase {
				mr, err = co.Reserve(ctx, spec)
			} else {
				mr, err = co.ReserveNaive(ctx, spec)
			}
			pt.Attempts++
			if err == nil {
				pt.Successes++
				ctx.Sleep(hold)
				// Cancel is idempotent and survives an RM restart (the
				// recovered tables release by id), so a driver that
				// retries a failed cancel bounds the orphan to the retry
				// horizon instead of the window end.
				for try := 0; ; try++ {
					if cerr := mr.Cancel(ctx); cerr == nil || try == 2 {
						break
					}
					ctx.Sleep(gap)
				}
			}
			holding = false
			ctx.Sleep(gap)
		}
	})

	// Sampler: integrate committed-but-unowned EF capacity.
	leakBits := 0.0
	sample := cfg.scale(250 * time.Millisecond)
	k.Spawn("figG-sampler", func(ctx *sim.Ctx) {
		for ctx.Now() < dur {
			ctx.Sleep(sample)
			if holding {
				continue
			}
			committed := 0.0
			for _, l := range r.net.Links() {
				for _, out := range []*netsim.Iface{l.A(), l.B()} {
					committed += r.rm1.Table(out).CommittedAt(ctx.Now())
					committed += r.rm2.Table(out).CommittedAt(ctx.Now())
				}
			}
			leakBits += committed * sample.Seconds()
		}
	})

	if err := k.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure G (loss %.2f): %v", loss, err))
	}
	mode := "naive"
	if twoPhase {
		mode = "two-phase"
	}
	cfg.collectTrace(k, pid, fmt.Sprintf("figG loss=%.0f%% %s", 100*loss, mode))
	pt.SuccessRate = float64(pt.Successes) / float64(pt.Attempts)
	pt.LeakMB = leakBits / 8e6
	return pt
}

// FigureGTable renders the per-loss comparison.
func FigureGTable(r FigureGResult) trace.Table {
	t := trace.Table{Headers: []string{
		"ctrl loss", "2-phase ok", "2-phase leak", "naive ok", "naive leak",
	}}
	for i := range r.Losses {
		tp, nv := r.TwoPhase[i], r.Naive[i]
		t.Add(fmt.Sprintf("%.0f%%", 100*r.Losses[i]),
			fmt.Sprintf("%d/%d", tp.Successes, tp.Attempts),
			fmt.Sprintf("%.1f MB", tp.LeakMB),
			fmt.Sprintf("%d/%d", nv.Successes, nv.Attempts),
			fmt.Sprintf("%.1f MB", nv.LeakMB))
	}
	return t
}
