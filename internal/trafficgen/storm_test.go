package trafficgen

import (
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

// stormRig is a single-domain serving testbed (hostA - e1 - c1) with an
// admission-controlled control plane, mirroring the figure I topology.
type stormRig struct {
	k     *sim.Kernel
	net   *netsim.Network
	rm    *gara.NetworkRM
	links []*netsim.Link
	plane *ctrlplane.Plane
	storm *ReservationStorm
}

func newStormRig(seed int64, rate float64, adaptive bool, stop time.Duration) *stormRig {
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
	plane := ctrlplane.NewPlane(k, ctrlplane.Options{
		Timeout:  400 * time.Millisecond,
		Deadline: 1200 * time.Millisecond,
		Admission: ctrlplane.Admission{
			ServiceTime:   10 * time.Millisecond,
			QueueLimit:    20,
			CoDelTarget:   50 * time.Millisecond,
			CoDelInterval: 200 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    16,
			BrownoutLo:    4,
			BrownoutHold:  500 * time.Millisecond,
		},
	})
	plane.AddDomain("dom", g, rm)
	conns := []*ctrlplane.Conn{
		plane.AddTenantConn("dom", "t0"),
		plane.AddTenantConn("dom", "t1"),
	}
	storm := &ReservationStorm{
		Conns:    conns,
		Rate:     rate,
		Clients:  4,
		Adaptive: adaptive,
		Think:    100 * time.Millisecond,
		Stop:     stop,
		Spec: func(i int) gara.Spec {
			cls := gara.ClassBestEffort
			switch i % 3 {
			case 0:
				cls = gara.ClassPremium
			case 1:
				cls = gara.ClassNormal
			}
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     cls,
				Flow:      diffserv.MatchHostPair(hostA.Addr(), c1.Addr(), netsim.ProtoUDP),
				Bandwidth: units.Mbps,
				Duration:  2 * time.Second,
			}
		},
	}
	return &stormRig{k: k, net: n, rm: rm, links: []*netsim.Link{l1, l2}, plane: plane, storm: storm}
}

// leaked sums booked EF fractions across the domain's links; once every
// reservation window has lapsed it must be zero.
func (r *stormRig) leaked() float64 {
	total := 0.0
	for _, l := range r.links {
		total += r.rm.Utilization(l, r.k.Now())
	}
	return total
}

// runStormSoak drives one full chaos soak — an admission storm at 5x
// capacity under rolling control-channel loss and duplication and a
// crash/restart mid storm — and returns its rig once every window has
// lapsed. CtrlLoss reaches only the domain's primary stub, which the
// storm does not use, so the storm's own tenant stubs are impaired
// directly for the same 12 s.
func runStormSoak(t *testing.T, seed int64) *stormRig {
	t.Helper()
	r := newStormRig(seed, 500, true, 12*time.Second)
	sc := faults.NewScenario("admission-storm-soak").
		CtrlLoss("dom", 0, 12*time.Second, 0.2).
		CtrlCrash(5*time.Second, "dom").
		CtrlRestart(6*time.Second, "dom")
	if _, err := sc.ApplyWith(r.net, r.plane); err != nil {
		t.Fatal(err)
	}
	impair := func(loss, dup float64) {
		for _, c := range r.storm.Conns {
			req, rep := c.Chans()
			for _, ch := range []*ctrlplane.Chan{req, rep} {
				ch.SetLoss(loss)
				ch.SetDup(dup)
			}
		}
	}
	impair(0.2, 0.05)
	r.k.At(12*time.Second, sim.PrioNormal, func() { impair(0, 0) })
	r.storm.Run(r.k)
	// Past storm stop + call deadline + the 2s reservation window, the
	// links must be clean again.
	if err := r.k.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAdmissionStormChaosSoak slams one admission-controlled domain at
// 5x capacity while the control channels drop 20% of messages and
// duplicate 5%, and the server crashes and restarts mid-storm. The
// invariants: the loss reaches the storm's messages, requests keep
// succeeding, overload sheds actually happen, nothing stays booked
// once every window lapses, and the admission queue drains to idle.
func TestAdmissionStormChaosSoak(t *testing.T) {
	r := runStormSoak(t, 21)
	st := r.storm.Stats()
	reg := r.k.Metrics()
	for _, tenant := range []string{"t0", "t1"} {
		for _, leg := range []string{"req", "rep"} {
			ch := "dom/" + tenant + "/" + leg
			if v, _ := reg.CounterValue("ctrl_msgs_dropped_total", "chan", ch); v == 0 {
				t.Errorf("no message dropped on storm channel %s", ch)
			}
			if v, _ := reg.CounterValue("ctrl_msgs_duplicated_total", "chan", ch); v == 0 {
				t.Errorf("no message duplicated on storm channel %s", ch)
			}
		}
	}
	if st.OK == 0 {
		t.Fatal("soak admitted nothing at all")
	}
	if st.Overloads == 0 {
		t.Fatal("5x storm produced no overload sheds — admission control inert?")
	}
	if got := r.leaked(); got != 0 {
		t.Fatalf("leaked %v of EF capacity after every window lapsed", got)
	}
	srv := r.plane.Conn("dom").Server()
	if d := srv.QueueDepth(); d != 0 {
		t.Fatalf("admission queue depth = %d after drain, want 0", d)
	}
	if l := srv.BrownoutLevel(); l != 0 {
		t.Fatalf("brownout level = %d after drain, want 0", l)
	}
	// The crash must have wiped the queue visibly: every queued request
	// at crash time counts as a shed with reason "crash".
	if v, ok := reg.CounterValue("admission_shed_total", "rm", "dom", "reason", "crash"); !ok || v == 0 {
		t.Error("server crash mid-storm wiped no queued requests")
	}
	t.Logf("soak: %d offered, %d ok, %d overloads, %d deadlines, %d refused",
		st.Offered, st.OK, st.Overloads, st.Deadlines, st.Refused)
}

// TestAdmissionStormSoakDeterministic runs the identical chaos soak
// twice from one seed: the storm's client-visible stats — counts and
// every individual latency — must match exactly.
func TestAdmissionStormSoakDeterministic(t *testing.T) {
	a := runStormSoak(t, 77).storm.Stats()
	b := runStormSoak(t, 77).storm.Stats()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different storms:\n a=%+v\n b=%+v", a, b)
	}
}

// TestStormNaiveVsAdaptiveClients pins the client-behavior contrast the
// figure rests on: with the same arrival process, adaptive AIMD clients
// extract at least as much goodput as naive immediate-retry clients
// from an overloaded domain, while suffering no deadline burns.
func TestStormNaiveVsAdaptiveClients(t *testing.T) {
	run := func(adaptive bool) *StormStats {
		r := newStormRig(5, 400, adaptive, 10*time.Second)
		r.storm.Run(r.k)
		if err := r.k.RunUntil(14 * time.Second); err != nil {
			t.Fatal(err)
		}
		return r.storm.Stats()
	}
	naive, adaptive := run(false), run(true)
	if naive.OK == 0 || adaptive.OK == 0 {
		t.Fatalf("storm starved: naive %d ok, adaptive %d ok", naive.OK, adaptive.OK)
	}
	if adaptive.OK < naive.OK {
		t.Errorf("adaptive clients admitted less than naive ones: %d vs %d", adaptive.OK, naive.OK)
	}
}
