package ctrlplane

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// rig is a two-domain testbed with a control plane:
//
//	hostA - e1 - c1 ===border=== c2 - e2 - hostB
//
// domain "dom1" owns {hostA-e1, e1-c1, border}, "dom2" the rest.
type rig struct {
	k            *sim.Kernel
	net          *netsim.Network
	hostA, hostB *netsim.Node
	border       *netsim.Link
	rm1, rm2     *gara.NetworkRM
	plane        *Plane
	co           *Coordinator
}

func newRig(seed int64, opts Options) *rig {
	k := sim.New(seed)
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

	plane := NewPlane(k, opts)
	plane.AddDomain("dom1", g1, rm1)
	plane.AddDomain("dom2", g2, rm2)
	return &rig{
		k: k, net: n, hostA: hostA, hostB: hostB, border: border,
		rm1: rm1, rm2: rm2, plane: plane, co: plane.Coordinator(),
	}
}

func (r *rig) spec(bw units.BitRate) gara.Spec {
	return gara.Spec{
		Type:      gara.ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.hostB.Addr(), netsim.ProtoUDP),
		Bandwidth: bw,
	}
}

// leaked sums booked EF fractions across every link and both RMs; a
// clean control plane leaves it at zero once nothing should be booked.
func (r *rig) leaked() float64 {
	total := 0.0
	for _, l := range r.net.Links() {
		total += r.rm1.Utilization(l, r.k.Now())
		total += r.rm2.Utilization(l, r.k.Now())
	}
	return total
}

func TestReserveOverHealthyControlPlane(t *testing.T) {
	r := newRig(1, Options{})
	var mr *MultiRes
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		mr, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps))
	})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(mr.segs) != 2 || mr.segs[0].conn == mr.segs[1].conn {
		t.Fatalf("segments = %+v, want one per domain", mr.segs)
	}
	if r.rm1.Utilization(r.border, r.k.Now()) == 0 {
		t.Fatal("dom1 did not book the border link")
	}
	r.k.Spawn("cancel", func(ctx *sim.Ctx) {
		if err := mr.Cancel(ctx); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	if err := r.k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.leaked(); got != 0 {
		t.Fatalf("leaked %v after cancel", got)
	}
}

func TestRetriesSurviveChannelLoss(t *testing.T) {
	// A generous per-call budget: under 40% bidirectional loss each
	// attempt succeeds with p≈0.36, so the call needs room to retry.
	r := newRig(7, Options{Deadline: 2 * time.Second})
	// 40% loss in both directions on both domains' channels.
	for _, name := range r.plane.Names() {
		r.plane.CtrlTarget(name).SetCtrlLoss(0.4)
	}
	var mr *MultiRes
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		mr, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps))
	})
	if err := r.k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("reserve should survive 40%% loss via retries: %v", rerr)
	}
	_ = mr
	reg := r.k.Metrics()
	retries := int64(0)
	for _, name := range r.plane.Names() {
		v, _ := reg.CounterValue("ctrl_rpc_retries_total", "rm", name)
		retries += v
	}
	if retries == 0 {
		t.Fatal("expected at least one retransmission under 40% loss")
	}
}

func TestDuplicateRequestsAnsweredIdempotently(t *testing.T) {
	r := newRig(3, Options{})
	// Duplicate every request; the server must execute each once.
	r.plane.Conn("dom1").toSrv.SetDup(1.0)
	r.plane.Conn("dom2").toSrv.SetDup(1.0)
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		_, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps))
	})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	reg := r.k.Metrics()
	if v, _ := reg.CounterValue("gara_prepares_total"); v != 2 {
		t.Fatalf("prepares executed = %d, want exactly one per domain", v)
	}
	dups := int64(0)
	for _, name := range r.plane.Names() {
		v, _ := reg.CounterValue("ctrl_server_dup_requests_total", "rm", name)
		dups += v
	}
	if dups == 0 {
		t.Fatal("expected duplicate requests to hit the reply cache")
	}
}

// TestEachAnswerKeepsItsOwnReply: a duplicated request can be
// answered twice, differently (shed at the door, then served), with
// both replies in flight at once. The first to arrive must reach the
// call with its own content.
func TestEachAnswerKeepsItsOwnReply(t *testing.T) {
	r := newRig(1, Options{})
	defer r.k.Close()
	c := r.plane.Conn("dom1")
	c.fromSrv.Jitter = 0
	cl := c.newCall(methodReserve, request{reqID: 1})
	c.waiting[1] = cl
	m := &msg{c: c, req: cl.req}
	m.answer(response{reqID: 1, overloaded: true, errText: "ctrlplane: admission shed (full)"})
	m.answer(response{reqID: 1, ok: true, resID: 7})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !cl.answered || !cl.resp.overloaded || cl.resp.ok {
		t.Fatalf("call holds %+v, want the first answer, the shed", cl.resp)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	// Threshold 1: a single deadline-exhausted call trips the breaker.
	r := newRig(5, Options{BreakerThreshold: 1})
	br := r.plane.Breaker("dom2")
	r.plane.CtrlTarget("dom2").CtrlCrash()

	var firstErr, fastErr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		// First call burns its deadline on timeouts and trips the
		// breaker; the second fails fast without touching the wire.
		_, firstErr = r.plane.Conn("dom2").call(ctx, methodPrepare,
			request{spec: r.spec(5 * units.Mbps)})
		sent, _ := r.k.Metrics().CounterValue("ctrl_rpc_attempts_total", "rm", "dom2")
		_, fastErr = r.plane.Conn("dom2").call(ctx, methodPrepare,
			request{spec: r.spec(5 * units.Mbps)})
		after, _ := r.k.Metrics().CounterValue("ctrl_rpc_attempts_total", "rm", "dom2")
		if after != sent {
			t.Errorf("breaker-rejected call still sent %d attempts", after-sent)
		}
	})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(firstErr, ErrDeadline) && !errors.Is(firstErr, ErrBreakerOpen) {
		t.Fatalf("first call error = %v, want deadline/breaker", firstErr)
	}
	if !errors.Is(fastErr, ErrBreakerOpen) {
		t.Fatalf("second call error = %v, want ErrBreakerOpen", fastErr)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}

	// Restart the server; after the cooldown a probe closes the loop.
	r.plane.CtrlTarget("dom2").CtrlRestart()
	var probeErr error
	r.k.Spawn("probe", func(ctx *sim.Ctx) {
		ctx.Sleep(br.Cooldown)
		_, probeErr = r.plane.Conn("dom2").call(ctx, methodPrepare,
			request{spec: r.spec(5 * units.Mbps)})
	})
	if err := r.k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if probeErr != nil {
		t.Fatalf("probe after restart: %v", probeErr)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker state after probe = %v, want closed", br.State())
	}
}

// The ctrlplane chaos acceptance test: dom2's server crashes between
// the prepare and commit phases of a co-reservation, injected through
// a faults scenario. The reservation fails, the crashed domain replays
// its journal on restart, and after lease expiry not a byte of booked
// bandwidth is leaked in either domain.
func TestChaosCrashMidCoReservationLeaksNothing(t *testing.T) {
	r := newRig(11, Options{})
	sc := faults.NewScenario("ctrl-crash-mid-reserve").
		CtrlCrash(22*time.Millisecond, "dom2").
		CtrlRestart(1500*time.Millisecond, "dom2")
	if _, err := sc.ApplyWith(r.net, r.plane); err != nil {
		t.Fatal(err)
	}
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		_, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps))
	})
	// Run long enough for restart, journal recovery, and lease expiry.
	if err := r.k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr == nil {
		t.Fatal("reserve should fail when a domain crashes mid-protocol")
	}
	if got := r.leaked(); got != 0 {
		t.Fatalf("leaked %v of EF capacity after crash + lease expiry", got)
	}
	reg := r.k.Metrics()
	if v, _ := reg.CounterValue("netrm_crashes_total", "rm", "dom2"); v != 1 {
		t.Fatalf("netrm_crashes_total = %d, want 1", v)
	}
	// Recovery ran (journal replay) — asserted via metrics, and the
	// orphaned prepare was reconciled against its lease one way or the
	// other (reclaimed during recovery if the lease lapsed while down,
	// or by the re-armed timer after).
	rebooked, _ := reg.CounterValue("netrm_recover_rebooked_total", "rm", "dom2")
	recovReclaimed, _ := reg.CounterValue("netrm_recover_reclaimed_total", "rm", "dom2")
	timerReclaimed, _ := reg.CounterValue("netrm_leases_reclaimed_total", "rm", "dom2")
	garaExpired, _ := reg.CounterValue("gara_leases_expired_total")
	if rebooked+recovReclaimed == 0 {
		t.Fatal("journal recovery should have seen the orphaned prepare")
	}
	// A rebooked lease is reclaimed by whichever timer fires first:
	// the RM's re-armed reclaim timer or the gara-side expiry.
	if rebooked > 0 && recovReclaimed+timerReclaimed+garaExpired == 0 {
		t.Fatal("a rebooked lease must eventually be reclaimed")
	}
	if v, _ := reg.CounterValue("ctrl_rpc_timeouts_total", "rm", "dom2"); v == 0 {
		t.Fatal("commit against the crashed server should have timed out")
	}
}

// Soak test for the CI chaos job: many sequential co-reservations under
// rolling control-plane loss and periodic crash/restart of both
// domains. The invariant at the end — after cancelling every success
// and letting leases expire — is zero booked capacity anywhere.
func TestControlPlaneSoak(t *testing.T) {
	r := newRig(42, Options{})
	sc := faults.NewScenario("ctrl-soak").
		CtrlLoss("dom1", 0, 60*time.Second, 0.25).
		CtrlLoss("dom2", 0, 60*time.Second, 0.25).
		CtrlCrash(9*time.Second, "dom2").
		CtrlRestart(11*time.Second, "dom2").
		CtrlCrash(23*time.Second, "dom1").
		CtrlRestart(26*time.Second, "dom1").
		CtrlCrash(41*time.Second, "dom2").
		CtrlRestart(44*time.Second, "dom2")
	if _, err := sc.ApplyWith(r.net, r.plane); err != nil {
		t.Fatal(err)
	}
	successes, failures := 0, 0
	// Finite windows: a committed segment whose cancel is lost in a
	// crash stays booked until its window ends (the protocol's
	// documented residual risk), so an infinite window would make the
	// zero-leak invariant unreachable by design.
	spec := r.spec(5 * units.Mbps)
	spec.Duration = 2 * time.Second
	r.k.Spawn("soak", func(ctx *sim.Ctx) {
		for ctx.Now() < 60*time.Second {
			spec.Start = ctx.Now()
			mr, err := r.co.Reserve(ctx, spec)
			if err != nil {
				failures++
			} else {
				successes++
				ctx.Sleep(500 * time.Millisecond)
				_ = mr.Cancel(ctx)
			}
			ctx.Sleep(time.Second)
		}
	})
	if err := r.k.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if successes == 0 {
		t.Fatal("soak made no successful co-reservations at all")
	}
	if failures == 0 {
		t.Fatal("soak injected faults but saw no failures — scenario inert?")
	}
	if got := r.leaked(); got != 0 {
		t.Fatalf("soak leaked %v of EF capacity (%d ok / %d failed)",
			got, successes, failures)
	}
	t.Logf("soak: %d ok, %d failed, zero leak", successes, failures)
}
