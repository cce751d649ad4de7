package workloads

import (
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/experiments"
	"mpichgq/internal/gara"
	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Figure I's broker: 10 ms per request, so about 100 requests/s.
const (
	stormServiceTime = 10 * time.Millisecond
	stormCapacityRPS = 100.0
)

// Storm is Figure I's admission storm, cell for cell as
// experiments.RunFigureI builds it: five offered loads, each with
// overload controls on and then off. The ten cells repeat for repeats
// root seeds, DeriveSeed(seed, 0..repeats-1), so that one pass holds
// enough storm to time.
func Storm(seed int64, timeScale float64, repeats int) *Workload {
	// Offered loads as multiples of broker capacity.
	mults := []float64{0.5, 1, 2, 5, 10}
	cells := 2 * len(mults)
	return &Workload{
		Name:   "admission-storm",
		Points: repeats * cells,
		New: func(i int) (Point, error) {
			root := experiments.DeriveSeed(seed, i/cells)
			c := i % cells
			// Both variants at one load share a seed, as in RunFigureI.
			return newStormPoint(experiments.DeriveSeed(root, c/2), timeScale, mults[c/2], c%2 == 0), nil
		},
	}
}

// stormPoint is one (load, controls) cell: a single-domain broker
// behind a lossy control channel, three tenants, and the storm.
type stormPoint struct {
	k        *sim.Kernel
	rm       *gara.NetworkRM
	out      *netsim.Iface
	storm    *trafficgen.ReservationStorm
	stop     time.Duration
	dur      time.Duration
	mult     float64
	controls bool
}

func newStormPoint(seed int64, timeScale float64, mult float64, controls bool) *stormPoint {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * timeScale) }
	k := sim.New(seed)
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

	opts := ctrlplane.Options{
		Timeout:  400 * time.Millisecond,
		Deadline: 1200 * time.Millisecond,
	}
	if controls {
		opts.Admission = ctrlplane.Admission{
			ServiceTime:   stormServiceTime,
			QueueLimit:    20,
			CoDelTarget:   50 * time.Millisecond,
			CoDelInterval: 200 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    16,
			BrownoutLo:    4,
			BrownoutHold:  500 * time.Millisecond,
		}
	} else {
		opts.Admission = ctrlplane.Admission{ServiceTime: stormServiceTime}
	}
	plane := ctrlplane.NewPlane(k, opts)
	plane.AddDomain("dom", g, rm)
	conns := []*ctrlplane.Conn{
		plane.AddTenantConn("dom", "t0"),
		plane.AddTenantConn("dom", "t1"),
		plane.AddTenantConn("dom", "t2"),
	}
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
	p := &stormPoint{
		k: k, rm: rm, out: l2.A(),
		stop: scale(16 * time.Second), dur: scale(20 * time.Second),
		mult: mult, controls: controls,
	}
	p.storm = &trafficgen.ReservationStorm{
		Conns:    conns,
		Rate:     mult * stormCapacityRPS,
		Clients:  6,
		Adaptive: controls,
		Retries:  2,
		Think:    scale(200 * time.Millisecond),
		Stop:     p.stop,
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
	p.storm.Run(k)
	return p
}

func (p *stormPoint) Ops() int { return steps(p.dur) }

func (p *stormPoint) Op(j int) (string, error) {
	return "sim.Kernel.RunUntil", p.k.RunUntil(stepEnd(j, p.dur))
}

func (p *stormPoint) Registry() *metrics.Registry { return p.k.Metrics() }

// result reads the cell the way experiments.RunFigureI does.
func (p *stormPoint) result() experiments.FigureIPoint {
	pt := experiments.FigureIPoint{Mult: p.mult, OfferedRPS: p.mult * stormCapacityRPS}
	st := p.storm.Stats()
	pt.Offered, pt.OK = st.Offered, st.OK
	pt.Deadlines = st.Deadlines
	pt.PremiumOK = st.OKByClass[gara.ClassPremium]
	pt.PremiumOffered = st.OfferedByClass[gara.ClassPremium]
	pt.GoodputRPS = float64(st.OK) / p.stop.Seconds()
	if len(st.Latencies) > 0 {
		lat := make([]time.Duration, len(st.Latencies))
		copy(lat, st.Latencies)
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		pt.P99 = lat[len(lat)*99/100]
	}
	reg := p.k.Metrics()
	for _, reason := range []string{"full", "codel", "brownout", "expired", "evict"} {
		if v, ok := reg.CounterValue("admission_shed_total", "rm", "dom", "reason", reason); ok {
			pt.Sheds += int(v)
		}
	}
	return pt
}

func (p *stormPoint) Collect() (Result, error) {
	pt := p.result()
	if pt.Offered == 0 || pt.OK > pt.Offered || pt.PremiumOK > pt.PremiumOffered {
		return Result{}, fmt.Errorf("storm mult=%v controls=%v: inconsistent stats %+v", p.mult, p.controls, pt)
	}
	return Result{
		Record: record("mult", pt.Mult, "controls", p.controls, "offered", pt.Offered, "ok", pt.OK,
			"goodput", pt.GoodputRPS, "p99", int64(pt.P99), "sheds", pt.Sheds, "deadlines", pt.Deadlines,
			"prem_ok", pt.PremiumOK, "prem_offered", pt.PremiumOffered, "events", p.k.EventsRun()),
		Counts: map[string]float64{
			CountEvents:       float64(p.k.EventsRun()),
			CountSlots:        float64(p.rm.Table(p.out).Len()),
			CountStormOffered: float64(pt.Offered),
			CountStormOK:      float64(pt.OK),
		},
	}, nil
}
