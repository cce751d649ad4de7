package trafficgen

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// stormCase is one generated configuration of TestStormDifferential.
type stormCase struct {
	seed      int64
	mult      float64 // offered open-loop load, in multiples of capacity
	conns     int
	clients   int
	retries   int
	adaptive  bool
	admission int // 0 off (inline dispatch), 1 service time only, 2 every control
	loss, dup float64
	crash     bool
}

// A generated domain's broker serves one request per stormCaseService
// when admission is on; storms stop at stormCaseStop and drain until
// stormCaseEnd.
const (
	stormCaseService  = 10 * time.Millisecond
	stormCaseCapacity = float64(time.Second / stormCaseService)
	stormCaseStop     = 1500 * time.Millisecond
	stormCaseEnd      = 4 * time.Second
)

func genStormCase(seed int64) stormCase {
	r := sim.NewRNG(seed)
	sc := stormCase{
		seed:      seed,
		mult:      0.5 + 9.5*r.Float64(),
		conns:     1 + r.Intn(3),
		clients:   r.Intn(7),
		retries:   r.Intn(4),
		adaptive:  r.Intn(2) == 0,
		admission: r.Intn(3),
		crash:     r.Intn(3) == 0,
	}
	if r.Intn(2) == 0 {
		sc.loss = 0.3 * r.Float64()
	}
	if r.Intn(2) == 0 {
		sc.dup = 0.3 * r.Float64()
	}
	return sc
}

// stormCaseWorld builds a case's single-domain control plane and the
// storm configuration over it, not yet running.
func stormCaseWorld(sc stormCase) (*sim.Kernel, *ReservationStorm) {
	k := sim.New(sc.seed)
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	l1 := n.Connect(hostA, e1, units.Gbps, time.Millisecond)
	l2 := n.Connect(e1, c1, units.Gbps, time.Millisecond)
	n.ComputeRoutes()
	dom := diffserv.NewDomain(k)
	dom.EnableEFAll(hostA, e1, c1)
	// A small EF share, so that refusals for want of capacity happen.
	rm := gara.NewNetworkRM(n, dom, 0.2)
	rm.Scope = gara.LinkScope(l1, l2)
	g := gara.New(k)
	g.Register(rm)
	opts := ctrlplane.Options{Timeout: 400 * time.Millisecond, Deadline: 1200 * time.Millisecond}
	switch sc.admission {
	case 1:
		opts.Admission = ctrlplane.Admission{ServiceTime: stormCaseService}
	case 2:
		opts.Admission = ctrlplane.Admission{
			ServiceTime:   stormCaseService,
			QueueLimit:    20,
			CoDelTarget:   50 * time.Millisecond,
			CoDelInterval: 200 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    16,
			BrownoutLo:    4,
			BrownoutHold:  500 * time.Millisecond,
		}
	}
	plane := ctrlplane.NewPlane(k, opts)
	plane.AddDomain("dom", g, rm)
	var conns []*ctrlplane.Conn
	for i := 0; i < sc.conns; i++ {
		cn := plane.AddTenantConn("dom", fmt.Sprint("t", i))
		toSrv, fromSrv := cn.Chans()
		for _, ch := range []*ctrlplane.Chan{toSrv, fromSrv} {
			ch.SetLoss(sc.loss)
			ch.SetDup(sc.dup)
		}
		conns = append(conns, cn)
	}
	if sc.crash {
		faults.NewScenario("storm-crash").
			CtrlCrash(stormCaseStop/3, "dom").
			CtrlRestart(stormCaseStop/2, "dom").
			MustApply(n, faults.Targets{Ctrl: plane})
	}
	storm := &ReservationStorm{
		Conns:    conns,
		Rate:     sc.mult * stormCaseCapacity,
		Clients:  sc.clients,
		Adaptive: sc.adaptive,
		Retries:  sc.retries,
		Think:    100 * time.Millisecond,
		Stop:     stormCaseStop,
		Spec: func(i int) gara.Spec {
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     gara.Class(i % 3),
				Flow:      diffserv.MatchHostPair(hostA.Addr(), c1.Addr(), netsim.ProtoUDP),
				Bandwidth: 10 * units.Mbps,
				Duration:  time.Second,
			}
		},
	}
	return k, storm
}

// runStormCase runs a case with the storm under test or, if reference,
// with refStorm, and returns the storm's stats, the kernel's event
// count, a digest of every flight-recorder event, and how many calls
// the breaker rejected. The storm under test must hold no process at
// any point.
func runStormCase(t *testing.T, sc stormCase, reference bool) (*StormStats, uint64, string, int64) {
	t.Helper()
	k, storm := stormCaseWorld(sc)
	defer k.Close()
	if reference {
		(&refStorm{ReservationStorm: storm}).run(k)
	} else {
		storm.Run(k)
	}
	for at := 100 * time.Millisecond; at <= stormCaseEnd; at += 100 * time.Millisecond {
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if n := k.LiveProcs(); !reference && n != 0 {
			t.Fatalf("%+v: %d processes live at %v", sc, n, at)
		}
	}
	rec := k.Metrics().Events()
	h := sha256.New()
	fmt.Fprintf(h, "events %d now %d emitted %d\n", k.EventsRun(), k.Now(), rec.Seq())
	for _, e := range rec.Snapshot() {
		fmt.Fprintf(h, "%d %d %s %s %d %d %d\n", e.Seq, e.At, e.Type, e.Subject, e.V1, e.V2, e.V3)
	}
	rejects, _ := k.Metrics().CounterValue("ctrl_rpc_breaker_rejects_total", "rm", "dom")
	return storm.Stats(), k.EventsRun(), hex.EncodeToString(h.Sum(nil)), rejects
}

// TestStormDifferential runs about a hundred generated storms twice:
// with the callback storm, whose requests, clients, arrival generator
// and control RPCs are Waiter-driven state machines, and with refStorm,
// the storm as it was when every request and client was a process.
// Configurations span open-loop rates from 0.5x to 10x the broker's
// capacity, 0-6 closed-loop clients, naive and adaptive clients,
// 0-3 retries, admission off, service time only and every overload
// control, channel loss and duplication, and a server crash and
// restart. Both storms must give equal stats, latencies included,
// equal event counts and equal flight-recorder digests.
func TestStormDifferential(t *testing.T) {
	var shed, deadlines, refused, ok int
	var rejects int64
	for seed := int64(1); seed <= 100; seed++ {
		sc := genStormCase(seed)
		wantStats, wantEvents, wantDigest, _ := runStormCase(t, sc, true)
		gotStats, gotEvents, gotDigest, gotRejects := runStormCase(t, sc, false)
		if gotEvents != wantEvents {
			t.Fatalf("%+v: %d events, process storm %d", sc, gotEvents, wantEvents)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%+v: stats differ:\n callbacks %+v\n processes %+v", sc, *gotStats, *wantStats)
		}
		if gotDigest != wantDigest {
			t.Fatalf("%+v: flight-recorder digest %s, process storm %s", sc, gotDigest, wantDigest)
		}
		shed += gotStats.Overloads
		deadlines += gotStats.Deadlines
		refused += gotStats.Refused
		ok += gotStats.OK
		rejects += gotRejects
	}
	// The generated storms reach every outcome a request can have,
	// including an open breaker's rejection, which ends a call before
	// Reserve returns.
	if shed == 0 || deadlines == 0 || refused == 0 || ok == 0 || rejects == 0 {
		t.Fatalf("outcomes not all reached: %d ok, %d overloads, %d deadlines, %d refused, %d breaker rejects",
			ok, shed, deadlines, refused, rejects)
	}
	t.Logf("%d ok, %d overloads, %d deadlines, %d refused, %d breaker rejects", ok, shed, deadlines, refused, rejects)
}

// refStorm is the reference for TestStormDifferential: the storm as it
// ran before its requests became state machines, with an arrival
// generator process that spawns one process per arrival, one process
// per closed-loop client, a process-form limiter (refLimiter) and each
// control RPC made from the request's process. The RPC goes through
// Coordinator.ReserveNaive over the request's one domain, which makes
// exactly the single reserve call the storm's Conn.Reserve makes, from
// a process.
type refStorm struct {
	*ReservationStorm
	cos  []*ctrlplane.Coordinator
	lims [][]*refLimiter
}

func (s *refStorm) run(k *sim.Kernel) {
	if s.Retries == 0 {
		s.Retries = 2
	}
	if s.Think <= 0 {
		s.Think = 50 * time.Millisecond
	}
	for _, cn := range s.Conns {
		s.cos = append(s.cos, ctrlplane.NewCoordinator(cn))
	}
	if s.Adaptive {
		s.lims = make([][]*refLimiter, len(s.Conns))
		for i := range s.Conns {
			s.lims[i] = make([]*refLimiter, 3)
			for cl := range s.lims[i] {
				s.lims[i][cl] = &refLimiter{k: k, cond: sim.NewCond(k), min: 1, max: stormWindowMax, window: 1}
			}
		}
	}
	if s.Rate > 0 {
		k.Spawn("storm-arrivals", func(ctx *sim.Ctx) {
			mean := float64(time.Second) / s.Rate
			for i := 0; ; i++ {
				gap := time.Duration(ctx.Kernel().RNG().ExpFloat64() * mean)
				if gap < time.Microsecond {
					gap = time.Microsecond
				}
				ctx.Sleep(gap)
				if ctx.Now() >= s.Stop {
					return
				}
				ci := i % len(s.Conns)
				ctx.SpawnChild("storm-arrival", func(cctx *sim.Ctx) {
					s.oneRequest(cctx, ci)
				})
			}
		})
	}
	for c := 0; c < s.Clients; c++ {
		ci := c % len(s.Conns)
		k.Spawn(fmt.Sprintf("storm-client-%d", c), func(ctx *sim.Ctx) {
			for ctx.Now() < s.Stop {
				s.oneRequest(ctx, ci)
				ctx.Sleep(s.Think)
			}
		})
	}
}

func (s *refStorm) oneRequest(ctx *sim.Ctx, ci int) {
	spec := s.Spec(s.n)
	var lim *refLimiter
	if s.lims != nil {
		lim = s.lims[ci][spec.Class]
	}
	s.n++
	s.stats.Offered++
	s.stats.OfferedByClass[spec.Class]++
	for attempt := 0; ; attempt++ {
		if lim != nil {
			lim.Acquire(ctx)
			if attempt == 0 && ctx.Now() >= s.Stop {
				lim.Cancel()
				return
			}
		}
		start := ctx.Now()
		_, err := s.cos[ci].ReserveNaive(ctx, spec)
		if err == nil {
			if lim != nil {
				lim.Release(true, false, 0)
			}
			if ctx.Now() <= s.Stop {
				s.stats.OK++
				s.stats.OKByClass[spec.Class]++
				s.stats.Latencies = append(s.stats.Latencies, ctx.Now()-start)
			}
			return
		}
		var oe *ctrlplane.OverloadedError
		overloaded := errors.As(err, &oe)
		expired := errors.Is(err, ctrlplane.ErrDeadline)
		if lim != nil {
			var ra time.Duration
			if overloaded {
				ra = oe.RetryAfter
			}
			lim.Release(!overloaded && !expired, overloaded, ra)
		}
		switch {
		case overloaded:
			s.stats.Overloads++
		case expired:
			s.stats.Deadlines++
		default:
			s.stats.Refused++
			return
		}
		if attempt >= s.Retries || ctx.Now() >= s.Stop {
			return
		}
	}
}

// refLimiter is ctrlplane.Limiter with the blocking Acquire it had
// when its callers were processes.
type refLimiter struct {
	k                *sim.Kernel
	cond             *sim.Cond
	min, max, window float64
	inflight         int
	holdUntil        time.Duration
}

func (l *refLimiter) Acquire(ctx *sim.Ctx) {
	for {
		if hold := l.holdUntil - l.k.Now(); hold > 0 {
			ctx.Sleep(hold)
			continue
		}
		if l.inflight < int(l.window) {
			l.inflight++
			return
		}
		l.cond.Wait(ctx)
	}
}

func (l *refLimiter) Cancel() {
	l.inflight--
	l.cond.Broadcast()
}

func (l *refLimiter) Release(ok bool, overloaded bool, retryAfter time.Duration) {
	l.inflight--
	if ok {
		l.window = min(l.window+1/l.window, l.max)
	} else {
		l.window = max(l.window/2, l.min)
		if overloaded && retryAfter > 0 {
			l.holdUntil = max(l.holdUntil, l.k.Now()+retryAfter)
		}
	}
	l.cond.Broadcast()
}
