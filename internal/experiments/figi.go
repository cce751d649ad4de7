package experiments

import (
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// figIServiceTime is the broker's per-request execution time; the
// domain's admission capacity is its inverse, ~100 requests/s.
const figIServiceTime = 10 * time.Millisecond

// figICapacityRPS is the nominal broker capacity the load multipliers
// are expressed against.
const figICapacityRPS = 100.0

// FigureIPoint is one (offered load, controls) cell of the overload
// figure.
type FigureIPoint struct {
	// Mult is the offered load as a multiple of broker capacity.
	Mult float64
	// OfferedRPS is the open-loop arrival rate.
	OfferedRPS float64
	// Offered/OK count logical requests issued and admitted.
	Offered, OK int
	// GoodputRPS is admitted requests per second of storm time —
	// replies that reached a still-waiting client.
	GoodputRPS float64
	// P99 is the 99th-percentile admission latency over successful
	// requests (0 when none succeeded).
	P99 time.Duration
	// Sheds counts admission-control rejections and drops server-side;
	// Deadlines counts client calls that burned their whole deadline.
	Sheds, Deadlines int
	// PremiumOK / PremiumOffered isolate the protected class.
	PremiumOK, PremiumOffered int
}

// FigureIResult holds the goodput-vs-load curves with overload
// controls on and off.
type FigureIResult struct {
	Mults    []float64
	Controls []FigureIPoint
	NoCtrl   []FigureIPoint
}

// RunFigureI runs the admission-storm figure: one administrative
// domain with a finite-capacity broker (10ms per request) behind the
// usual lossy control channel, slammed by a seeded Poisson
// reservation storm plus closed-loop retrying clients at 0.5×–10×
// capacity. With overload controls off (unbounded FIFO queue, naive
// immediate-retry clients) goodput collapses as offered load grows:
// the queue's sojourn outruns every client deadline, so the broker
// spends its capacity on dead work and duplicate retransmissions.
// With controls on (bounded fair queue, deadline-expired drop, CoDel
// shedding, brownout, AIMD clients honoring retry-after) goodput
// holds near capacity and degrades gracefully, shedding best-effort
// classes first.
func RunFigureI(cfg Config) FigureIResult {
	cfg = cfg.withDefaults()
	res := FigureIResult{Mults: []float64{0.5, 1, 2, 5, 10}}
	points := Sweep(cfg.Parallel, 2*len(res.Mults), func(i int) FigureIPoint {
		mult := res.Mults[i/2]
		// Both variants at one load level share a seed, so they face
		// the identical arrival process.
		seed := DeriveSeed(cfg.Seed, i/2)
		return runFigIPoint(cfg, i, seed, mult, i%2 == 0)
	})
	for i := range res.Mults {
		res.Controls = append(res.Controls, points[2*i])
		res.NoCtrl = append(res.NoCtrl, points[2*i+1])
	}
	return res
}

// runFigIPoint runs one (load, controls) cell on its own kernel.
func runFigIPoint(cfg Config, pid int, seed int64, mult float64, controls bool) FigureIPoint {
	stop := cfg.scale(16 * time.Second)
	dur := cfg.scale(20 * time.Second)

	// Single-domain serving topology: hostA - e1 - c1, the domain's RM
	// scoped over both links.
	k := sim.New(seed)
	defer k.Close()
	cfg.enableTrace(k)
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	l1 := n.Connect(hostA, e1, units.Gbps, time.Millisecond)
	l2 := n.Connect(e1, c1, units.Gbps, time.Millisecond)
	n.ComputeRoutes()
	dom := diffserv.NewDomain(k)
	dom.EnableEFAll(hostA, e1, c1)
	rm := gara.NewNetworkRM(n, dom, 0.5)
	rm.Scope = gara.LinkScope(l1, l2)
	g := gara.New(k)
	g.Register(rm)

	// Protocol timescales are fixed constants (see figG). The
	// per-attempt timeout must cover a full healthy queue drain
	// (QueueLimit×ServiceTime + service + channel), else retransmitted
	// duplicates of still-queued requests burn extra service slots.
	opts := ctrlplane.Options{
		Timeout:  400 * time.Millisecond,
		Deadline: 1200 * time.Millisecond,
	}
	if controls {
		opts.Admission = ctrlplane.Admission{
			ServiceTime:   figIServiceTime,
			QueueLimit:    20,
			CoDelTarget:   50 * time.Millisecond,
			CoDelInterval: 200 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    16,
			BrownoutLo:    4,
			BrownoutHold:  500 * time.Millisecond,
		}
	} else {
		// The collapse configuration: same finite capacity, but an
		// unbounded FIFO with no shedding, no expired-drop, no
		// brownout.
		opts.Admission = ctrlplane.Admission{ServiceTime: figIServiceTime}
	}
	plane := ctrlplane.NewPlane(k, opts)
	plane.AddDomain("dom", g, rm)

	// Three competing tenants share the domain.
	conns := []*ctrlplane.Conn{
		plane.AddTenantConn("dom", "t0"),
		plane.AddTenantConn("dom", "t1"),
		plane.AddTenantConn("dom", "t2"),
	}

	pt := FigureIPoint{Mult: mult, OfferedRPS: mult * figICapacityRPS}
	classOf := func(i int) gara.Class {
		switch i % 5 {
		case 0:
			return gara.ClassPremium
		case 1, 2:
			return gara.ClassNormal
		default:
			return gara.ClassBestEffort
		}
	}
	storm := &trafficgen.ReservationStorm{
		Conns:    conns,
		Rate:     pt.OfferedRPS,
		Clients:  6,
		Adaptive: controls,
		Retries:  2,
		Think:    cfg.scale(200 * time.Millisecond),
		Stop:     stop,
		Spec: func(i int) gara.Spec {
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     classOf(i),
				Flow:      diffserv.MatchHostPair(hostA.Addr(), c1.Addr(), netsim.ProtoUDP),
				Bandwidth: units.Mbps,
				Duration:  2 * time.Second,
			}
		},
	}
	storm.Run(k)

	if err := k.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure I (mult %.1f controls %v): %v", mult, controls, err))
	}

	st := storm.Stats()
	pt.Offered, pt.OK = st.Offered, st.OK
	pt.Deadlines = st.Deadlines
	pt.PremiumOK = st.OKByClass[gara.ClassPremium]
	pt.PremiumOffered = st.OfferedByClass[gara.ClassPremium]
	pt.GoodputRPS = float64(st.OK) / stop.Seconds()
	if len(st.Latencies) > 0 {
		lat := make([]time.Duration, len(st.Latencies))
		copy(lat, st.Latencies)
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		pt.P99 = lat[len(lat)*99/100]
	}
	reg := k.Metrics()
	for _, reason := range []string{"full", "codel", "brownout", "expired", "evict"} {
		if v, ok := reg.CounterValue("admission_shed_total", "rm", "dom", "reason", reason); ok {
			pt.Sheds += int(v)
		}
	}
	mode := "no-controls"
	if controls {
		mode = "controls"
	}
	cfg.collectTrace(k, pid, fmt.Sprintf("figI mult=%.1f %s", mult, mode))
	return pt
}

// FigureITable renders the per-load comparison.
func FigureITable(r FigureIResult) trace.Table {
	t := trace.Table{Headers: []string{
		"offered", "ctl goodput", "ctl p99", "ctl shed", "ctl prem",
		"raw goodput", "raw p99", "raw dead",
	}}
	for i := range r.Mults {
		on, off := r.Controls[i], r.NoCtrl[i]
		prem := "-"
		if on.PremiumOffered > 0 {
			prem = fmt.Sprintf("%.0f%%", 100*float64(on.PremiumOK)/float64(on.PremiumOffered))
		}
		t.Add(fmt.Sprintf("%.1fx (%.0f/s)", r.Mults[i], on.OfferedRPS),
			fmt.Sprintf("%.1f/s", on.GoodputRPS),
			fmt.Sprintf("%d ms", on.P99.Milliseconds()),
			fmt.Sprintf("%d", on.Sheds),
			prem,
			fmt.Sprintf("%.1f/s", off.GoodputRPS),
			fmt.Sprintf("%d ms", off.P99.Milliseconds()),
			fmt.Sprintf("%d", off.Deadlines))
	}
	return t
}
