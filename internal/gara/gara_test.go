package gara

import (
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/dsrt"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// rig is a small testbed: a --- edge === core --- b with a 10 Mb/s
// bottleneck, plus a CPU and a DPSS server, all behind one Gara.
type rig struct {
	k      *sim.Kernel
	net    *netsim.Network
	a, b   *netsim.Node
	bott   *netsim.Link
	domain *diffserv.Domain
	g      *Gara
	netRM  *NetworkRM
	cpu    *dsrt.CPU
	dpss   *DPSS
}

func newRig() *rig {
	k := sim.New(1)
	n := netsim.New(k)
	a, edge, core, b := n.AddNode("a"), n.AddNode("edge"), n.AddNode("core"), n.AddNode("b")
	n.Connect(a, edge, 100*units.Mbps, time.Millisecond)
	bott := n.Connect(edge, core, 10*units.Mbps, time.Millisecond)
	n.Connect(core, b, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	domain := diffserv.NewDomain(k)
	domain.EnableEFAll(edge, core)
	g := New(k)
	netRM := NewNetworkRM(n, domain, 0.5) // EF limited to 5 Mb/s of the bottleneck
	g.Register(netRM)
	g.Register(NewCPURM())
	g.Register(NewStorageRM())
	return &rig{
		k: k, net: n, a: a, b: b, bott: bott, domain: domain,
		g: g, netRM: netRM,
		cpu:  dsrt.NewCPU(k, "host-a"),
		dpss: NewDPSS(100 * units.Mbps),
	}
}

// edgeBucket returns the token bucket that polices the rig's one
// installed reservation at the edge router's ingress.
func (r *rig) edgeBucket(t *testing.T) *diffserv.TokenBucket {
	t.Helper()
	rules := r.domain.Classifier(r.net.Links()[0].B()).Rules()
	if len(rules) != 1 {
		t.Fatalf("%d rules at the edge ingress, want 1", len(rules))
	}
	return rules[0].Police
}

func (r *rig) netSpec(bw units.BitRate) Spec {
	return Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.a.Addr(), r.b.Addr(), netsim.ProtoTCP),
		Bandwidth: bw,
	}
}

func TestImmediateNetworkReservation(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(r.netSpec(2 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != StateActive {
		t.Fatalf("state = %v, want active", res.State())
	}
	// The rule must be installed on the edge router's ingress (the
	// iface on "edge" facing "a").
	edgeIngress := r.net.Links()[0].B()
	if len(r.domain.Classifier(edgeIngress).Rules()) != 1 {
		t.Fatal("classifier rule not installed at edge ingress")
	}
	res.Cancel()
	if res.State() != StateCancelled {
		t.Fatalf("state after cancel = %v", res.State())
	}
	if len(r.domain.Classifier(edgeIngress).Rules()) != 0 {
		t.Fatal("rule not removed on cancel")
	}
}

func TestAdmissionControlOnBottleneck(t *testing.T) {
	r := newRig()
	// EF capacity = 5 Mb/s. First 4 Mb/s passes, next 2 Mb/s fails.
	if _, err := r.g.Reserve(r.netSpec(4 * units.Mbps)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.g.Reserve(r.netSpec(2 * units.Mbps)); err == nil {
		t.Fatal("4+2 Mb/s should exceed the 5 Mb/s EF share")
	}
	if _, err := r.g.Reserve(r.netSpec(1 * units.Mbps)); err != nil {
		t.Fatalf("4+1 Mb/s should be admitted: %v", err)
	}
	if u := r.netRM.Utilization(r.bott, r.k.Now()); u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
}

func TestAdvanceReservationLifecycle(t *testing.T) {
	r := newRig()
	spec := r.netSpec(2 * units.Mbps)
	spec.Start = 10 * time.Second
	spec.Duration = 5 * time.Second
	res, err := r.g.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	var transitions []State
	res.OnChange(func(_ *Reservation, s State) { transitions = append(transitions, s) })
	if res.State() != StatePending {
		t.Fatalf("state = %v, want pending", res.State())
	}
	r.k.RunUntil(11 * time.Second)
	if res.State() != StateActive {
		t.Fatalf("state at t=11s = %v, want active", res.State())
	}
	r.k.RunUntil(16 * time.Second)
	if res.State() != StateExpired {
		t.Fatalf("state at t=16s = %v, want expired", res.State())
	}
	if len(transitions) != 2 || transitions[0] != StateActive || transitions[1] != StateExpired {
		t.Fatalf("transitions = %v, want [active expired]", transitions)
	}
	// Capacity is free again after expiry.
	if _, err := r.g.Reserve(r.netSpec(5 * units.Mbps)); err != nil {
		t.Fatalf("capacity not released after expiry: %v", err)
	}
}

func TestAdvanceWindowConflicts(t *testing.T) {
	r := newRig()
	spec := r.netSpec(4 * units.Mbps)
	spec.Start = 10 * time.Second
	spec.Duration = 10 * time.Second
	if _, err := r.g.Reserve(spec); err != nil {
		t.Fatal(err)
	}
	// Overlapping advance window: rejected.
	spec2 := r.netSpec(4 * units.Mbps)
	spec2.Start = 15 * time.Second
	spec2.Duration = 10 * time.Second
	if _, err := r.g.Reserve(spec2); err == nil {
		t.Fatal("overlapping advance reservation should fail")
	}
	// Disjoint window: accepted.
	spec3 := r.netSpec(4 * units.Mbps)
	spec3.Start = 20 * time.Second
	spec3.Duration = 10 * time.Second
	if _, err := r.g.Reserve(spec3); err != nil {
		t.Fatalf("disjoint advance reservation should pass: %v", err)
	}
}

func TestModifyBandwidth(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(r.netSpec(2 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	spec := r.netSpec(4 * units.Mbps)
	if err := res.Modify(spec); err != nil {
		t.Fatal(err)
	}
	fr := r.edgeBucket(t)
	if fr.Rate() != 4*units.Mbps {
		t.Fatalf("bucket rate = %v, want 4Mb/s", fr.Rate())
	}
	// Beyond EF capacity: rejected, old spec intact.
	if err := res.Modify(r.netSpec(6 * units.Mbps)); err == nil {
		t.Fatal("modify beyond capacity should fail")
	}
	if fr.Rate() != 4*units.Mbps {
		t.Fatal("failed modify must not change enforcement")
	}
	if res.Spec().Bandwidth != 4*units.Mbps {
		t.Fatal("failed modify must not change spec")
	}
}

func TestModifyCancelledFails(t *testing.T) {
	r := newRig()
	res, _ := r.g.Reserve(r.netSpec(units.Mbps))
	res.Cancel()
	if err := res.Modify(r.netSpec(2 * units.Mbps)); err != ErrNotModifiable {
		t.Fatalf("modify after cancel = %v, want ErrNotModifiable", err)
	}
}

func TestCPUReservationViaGara(t *testing.T) {
	r := newRig()
	task := r.cpu.NewTask("app")
	res, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: task, Fraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if task.Reservation() != 0.9 {
		t.Fatalf("DSRT reservation = %v, want 0.9", task.Reservation())
	}
	res.Cancel()
	if task.Reservation() != 0 {
		t.Fatal("reservation not cleared on cancel")
	}
}

func TestCPUAdmissionAcrossReservations(t *testing.T) {
	r := newRig()
	t1 := r.cpu.NewTask("t1")
	t2 := r.cpu.NewTask("t2")
	if _, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: t1, Fraction: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: t2, Fraction: 0.5}); err == nil {
		t.Fatal("0.6+0.5 on one CPU should be rejected")
	}
	if _, err := r.g.Reserve(Spec{Type: ResourceCPU, Task: t2, Fraction: 0.3}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageReservation(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 60 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if r.dpss.ReservedRate() != 60*units.Mbps {
		t.Fatalf("reserved = %v, want 60Mb/s", r.dpss.ReservedRate())
	}
	if _, err := r.g.Reserve(Spec{Type: ResourceStorage, Store: r.dpss, ReadRate: 50 * units.Mbps}); err == nil {
		t.Fatal("60+50 over 100 Mb/s should fail")
	}
	res.Cancel()
	if r.dpss.ReservedRate() != 0 {
		t.Fatal("reservation not released")
	}
}

func TestCoReserveAllOrNothing(t *testing.T) {
	r := newRig()
	task := r.cpu.NewTask("app")
	// CPU part is fine, network part exceeds EF capacity: both must
	// fail, leaving no residue.
	_, err := r.g.CoReserve(
		Spec{Type: ResourceCPU, Task: task, Fraction: 0.5},
		r.netSpec(50*units.Mbps),
	)
	if err == nil {
		t.Fatal("co-reservation should fail")
	}
	if task.Reservation() != 0 {
		t.Fatal("failed co-reservation left CPU reservation behind")
	}
	// Both fit: succeeds.
	rs, err := r.g.CoReserve(
		Spec{Type: ResourceCPU, Task: task, Fraction: 0.5},
		r.netSpec(3*units.Mbps),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].State() != StateActive || rs[1].State() != StateActive {
		t.Fatal("co-reservation should yield two active handles")
	}
}

func TestReserveUnknownTypeFails(t *testing.T) {
	k := sim.New(1)
	g := New(k)
	if _, err := g.Reserve(Spec{Type: "tape"}); err == nil {
		t.Fatal("unknown resource type should fail")
	}
}

func TestNetworkSpecValidation(t *testing.T) {
	r := newRig()
	// Missing endpoints.
	if _, err := r.g.Reserve(Spec{Type: ResourceNetwork, Bandwidth: units.Mbps}); err == nil {
		t.Fatal("spec without endpoints should fail")
	}
	// Zero bandwidth.
	spec := r.netSpec(0)
	if _, err := r.g.Reserve(spec); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
}

func TestBucketDepthPolicy(t *testing.T) {
	r := newRig()
	res, err := r.g.Reserve(r.netSpec(4 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	fr := r.edgeBucket(t)
	want := diffserv.DepthForRate(4*units.Mbps, diffserv.NormalBucketDivisor)
	if fr.Depth() != want {
		t.Fatalf("default depth = %v, want %v (bandwidth/40)", fr.Depth(), want)
	}
	res.Cancel()
	// Explicit override.
	spec := r.netSpec(4 * units.Mbps)
	spec.BucketDepth = 99999
	_, err = r.g.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.edgeBucket(t).Depth() != 99999 {
		t.Fatal("explicit depth not honoured")
	}
}

// TestProbeAllocatesNothing pins that an admitted probe books and
// releases through the one trial reservation and the manager's scratch
// route, allocating nothing and leaving no slot behind.
func TestProbeAllocatesNothing(t *testing.T) {
	r := newRig()
	if _, err := r.g.Reserve(r.netSpec(4 * units.Mbps)); err != nil {
		t.Fatal(err)
	}
	out := r.net.Links()[1].A()
	slots := r.netRM.Table(out).Len()
	spec := r.netSpec(1 * units.Mbps)
	probe := func() {
		if err := r.g.Probe(spec); err != nil {
			t.Fatal(err)
		}
	}
	probe() // size the scratch route
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Fatalf("an admitted probe allocates %v objects, want 0", allocs)
	}
	if err := r.g.Probe(r.netSpec(2 * units.Mbps)); err == nil {
		t.Fatal("4+2 Mb/s should exceed the 5 Mb/s EF share")
	}
	if got := r.netRM.Table(out).Len(); got != slots {
		t.Fatalf("bottleneck holds %d slots after probing, want %d", got, slots)
	}
	if r.g.probe.g != nil {
		t.Fatal("the trial reservation outlived its probe")
	}
}

// TestModifyAndCancelAllocations pins the allocations of a Modify on
// an active, timed network reservation, one (the new end timer's
// closure), and of a Cancel, none: booking and unbooking through the
// manager add no closure and box nothing.
func TestModifyAndCancelAllocations(t *testing.T) {
	r := newRig()
	var live []*Reservation
	for i := 0; i < 102; i++ {
		spec := r.netSpec(10 * units.Kbps)
		spec.Duration = time.Hour
		res, err := r.g.Reserve(spec)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, res)
	}
	res := live[0]
	specs := [2]Spec{res.Spec(), res.Spec()}
	specs[1].Bandwidth = 20 * units.Kbps
	i := 0
	modify := func() {
		i++
		if err := res.Modify(specs[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	modify() // size the scratch route
	if allocs := testing.AllocsPerRun(100, modify); allocs != 1 {
		t.Errorf("Modify allocates %v objects, want 1", allocs)
	}
	next := 1
	cancel := func() {
		live[next].Cancel()
		next++
	}
	if allocs := testing.AllocsPerRun(100, cancel); allocs != 0 {
		t.Errorf("Cancel allocates %v objects, want 0", allocs)
	}
}
