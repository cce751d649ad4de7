package diffserv

import (
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// tokens settles the bucket and returns the tokens it holds.
func tokens(tb *TokenBucket) units.ByteSize {
	tb.refill()
	return units.ByteSize(tb.tokens)
}

// newClassifier returns a classifier holding rules in precedence
// order, first rule first.
func newClassifier(k *sim.Kernel, rules ...*Rule) *Classifier {
	c := &Classifier{k: k}
	for i := len(rules) - 1; i >= 0; i-- {
		c.InsertRule(rules[i])
	}
	return c
}

func TestTokenBucketStartsFull(t *testing.T) {
	k := sim.New(1)
	tb := NewTokenBucket(k, units.Mbps, 10000)
	if tokens(tb) != 10000 {
		t.Fatalf("tokens = %d, want 10000", tokens(tb))
	}
	if !tb.Conform(10000) {
		t.Fatal("full bucket should admit depth-sized packet")
	}
	if tb.Conform(1) {
		t.Fatal("empty bucket should reject")
	}
}

func TestTokenBucketRefill(t *testing.T) {
	k := sim.New(1)
	// 8 Mb/s = 1 MB/s = 1000 bytes/ms.
	tb := NewTokenBucket(k, 8*units.Mbps, 5000)
	tb.Conform(5000) // drain
	k.After(2*time.Millisecond, func() {
		if got := tokens(tb); got != 2000 {
			t.Errorf("tokens after 2ms = %d, want 2000", got)
		}
	})
	k.After(time.Hour, func() {
		if got := tokens(tb); got != 5000 {
			t.Errorf("tokens capped at %d, want 5000 (depth)", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketLongRunRate(t *testing.T) {
	// Offered load 2x the token rate: over a long window, conforming
	// bytes must approximate rate*time.
	k := sim.New(1)
	rate := 4 * units.Mbps // 500 bytes/ms
	tb := NewTokenBucket(k, rate, 4000)
	pkt := units.ByteSize(1000)
	var got int64
	exceeded := 0
	k.Spawn("src", func(ctx *sim.Ctx) {
		for ctx.Now() < 10*time.Second {
			if tb.Conform(pkt) {
				got += int64(pkt)
			} else {
				exceeded++
			}
			ctx.Sleep(time.Millisecond) // offered: 1000 bytes/ms
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64(rate.BytesIn(10 * time.Second))
	if got < want*95/100 || got > want*105/100+4000 {
		t.Fatalf("conforming bytes = %d, want ~%d", got, want)
	}
	if exceeded == 0 {
		t.Fatal("expected out-of-profile packets at 2x offered load")
	}
}

// Conservation: the bytes that conform never exceed the depth plus
// what the rate accrued, and tokens never exceed depth or go negative.
func TestTokenBucketConservationProperty(t *testing.T) {
	f := func(seed int64, depthKB uint8, steps uint8) bool {
		k := sim.New(seed)
		depth := units.ByteSize(depthKB%32+1) * units.KB
		tb := NewTokenBucket(k, units.Mbps, depth)
		rng := sim.NewRNG(seed)
		var conformed units.ByteSize
		ok := true
		k.Spawn("p", func(ctx *sim.Ctx) {
			for i := 0; i < int(steps); i++ {
				ctx.Sleep(time.Duration(rng.Intn(5000)) * time.Microsecond)
				if n := units.ByteSize(rng.Intn(3000) + 1); tb.Conform(n) {
					conformed += n
				}
				tok := tokens(tb)
				if tok < 0 || tok > depth {
					ok = false
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok && conformed <= depth+units.Mbps.BytesIn(k.Now())
	}
	if err := quick.Check(f, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketSetRateSettlesFirst(t *testing.T) {
	k := sim.New(1)
	tb := NewTokenBucket(k, 8*units.Mbps, 10000)
	tb.Conform(10000)
	k.After(time.Millisecond, func() {
		// 1 ms at 8 Mb/s = 1000 bytes accrued, then rate drops to 0.
		tb.SetRate(0)
		if got := tokens(tb); got != 1000 {
			t.Errorf("tokens = %d, want 1000", got)
		}
	})
	k.After(time.Second, func() {
		if got := tokens(tb); got != 1000 {
			t.Errorf("tokens grew at zero rate: %d", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDepthForRate(t *testing.T) {
	// Paper's operational rule: 500 Kb/s / 40 = 12500 bytes.
	if got := DepthForRate(500*units.Kbps, NormalBucketDivisor); got != 12500 {
		t.Fatalf("DepthForRate = %d, want 12500", got)
	}
	// Floor: tiny rates still pass one MTU.
	if got := DepthForRate(10*units.Kbps, NormalBucketDivisor); got != 1500 {
		t.Fatalf("floor: got %d, want 1500", got)
	}
	// Large bucket: 400 Kb/s / 4 = 100 KB, covering the 1 fps
	// stream's 50 KB frames (Table 1).
	if got := DepthForRate(400*units.Kbps, LargeBucketDivisor); got != 100000 {
		t.Fatalf("large bucket = %d, want 100000", got)
	}
}

func mkPkt(src, dst netsim.Addr, sport, dport netsim.Port, proto netsim.Proto, size units.ByteSize) *netsim.Packet {
	return &netsim.Packet{Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: proto, Size: size}
}

func TestMatchWildcards(t *testing.T) {
	p := mkPkt(1, 2, 10, 20, netsim.ProtoTCP, 100)
	if !(Match{}).Matches(p) {
		t.Fatal("zero Match should match everything")
	}
	if !MatchFlow(p.Key()).Matches(p) {
		t.Fatal("exact flow match failed")
	}
	if !MatchHostPair(1, 2, netsim.ProtoTCP).Matches(p) {
		t.Fatal("host pair match failed")
	}
	if MatchHostPair(2, 1, netsim.ProtoTCP).Matches(p) {
		t.Fatal("reversed host pair should not match")
	}
	udp := netsim.ProtoUDP
	if (Match{Proto: &udp}).Matches(p) {
		t.Fatal("wrong proto should not match")
	}
	p.DSCP = netsim.DSCPEF
	ef := netsim.DSCPEF
	if !(Match{DSCP: &ef}).Matches(p) {
		t.Fatal("DSCP match failed")
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	k := sim.New(1)
	tcp := netsim.ProtoTCP
	c := newClassifier(k,
		&Rule{Match: Match{Proto: &tcp}, Mark: netsim.DSCPEF},
		&Rule{Match: Match{}, Mark: netsim.DSCPBestEffort})
	p := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 100))
	if p.DSCP != netsim.DSCPEF {
		t.Fatal("first rule should win")
	}
	p2 := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoUDP, 100))
	if p2.DSCP != netsim.DSCPBestEffort {
		t.Fatal("second rule should catch UDP")
	}
}

func TestClassifierInsertRulePrecedence(t *testing.T) {
	k := sim.New(1)
	c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPBestEffort})
	c.InsertRule(&Rule{Match: Match{}, Mark: netsim.DSCPEF})
	p := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 100))
	if p.DSCP != netsim.DSCPEF {
		t.Fatal("inserted rule should take precedence")
	}
}

func TestClassifierNoMatchPassthrough(t *testing.T) {
	k := sim.New(1)
	udp := netsim.ProtoUDP
	c := newClassifier(k, &Rule{Match: Match{Proto: &udp}, Mark: netsim.DSCPEF})
	p := mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 100)
	got := c.Filter(p)
	if got != p || got.DSCP != netsim.DSCPBestEffort {
		t.Fatal("unmatched packet should pass unchanged")
	}
}

func TestPolicingDropsExceedingPackets(t *testing.T) {
	k := sim.New(1)
	tb := NewTokenBucket(k, 0, 2500) // no refill: only the initial burst passes
	c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedDrop})
	passed := 0
	for i := 0; i < 5; i++ {
		if c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoUDP, 1000)) != nil {
			passed++
		}
	}
	if passed != 2 {
		t.Fatalf("passed = %d, want 2", passed)
	}
	reg := k.Metrics()
	conform, _ := reg.CounterValue("diffserv_conform_packets_total", "dscp", "EF")
	exceed, _ := reg.CounterValue("diffserv_exceed_packets_total", "dscp", "EF")
	dropped, _ := reg.CounterValue("diffserv_police_drops_total", "dscp", "EF")
	if conform != 2 || exceed != 3 || dropped != 3 {
		t.Fatalf("conform/exceed/dropped = %d/%d/%d, want 2/3/3", conform, exceed, dropped)
	}
}

func TestPolicingRemark(t *testing.T) {
	k := sim.New(1)
	tb := NewTokenBucket(k, 0, 1000)
	c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedRemark})
	p1 := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoUDP, 1000))
	p2 := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoUDP, 1000))
	if p1.DSCP != netsim.DSCPEF {
		t.Fatal("conforming packet should be marked EF")
	}
	if p2 == nil || p2.DSCP != netsim.DSCPBestEffort {
		t.Fatal("exceeding packet should be remarked, not dropped")
	}
}

func TestPrioSchedulerStrictPriority(t *testing.T) {
	s := NewPrioScheduler(units.MB, units.MB)
	be := &netsim.Packet{Size: 100, DSCP: netsim.DSCPBestEffort}
	ef := &netsim.Packet{Size: 100, DSCP: netsim.DSCPEF}
	s.Enqueue(be)
	s.Enqueue(ef)
	if s.Dequeue() != ef {
		t.Fatal("EF must dequeue before best effort")
	}
	if s.Dequeue() != be {
		t.Fatal("best effort should follow")
	}
	if s.Dequeue() != nil {
		t.Fatal("empty scheduler should return nil")
	}
}

func TestPrioSchedulerPerBandCapacity(t *testing.T) {
	s := NewPrioScheduler(150, 150)
	ef := func() *netsim.Packet { return &netsim.Packet{Size: 100, DSCP: netsim.DSCPEF} }
	be := func() *netsim.Packet { return &netsim.Packet{Size: 100, DSCP: netsim.DSCPBestEffort} }
	if !s.Enqueue(ef()) || s.Enqueue(ef()) {
		t.Fatal("EF band should hold exactly one 100B packet")
	}
	if !s.Enqueue(be()) || s.Enqueue(be()) {
		t.Fatal("BE band should hold exactly one 100B packet")
	}
	if s.Len() != 2 || s.Bytes() != 200 || s.EFLen() != 1 || s.BELen() != 1 {
		t.Fatal("length accounting wrong")
	}
}

// Strict-priority invariant under random interleaving: no BE packet is
// ever returned while an EF packet is queued.
func TestPrioSchedulerInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		s := NewPrioScheduler(units.MB, units.MB)
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				d := netsim.DSCPBestEffort
				if rng.Intn(2) == 0 {
					d = netsim.DSCPEF
				}
				s.Enqueue(&netsim.Packet{Size: 100, DSCP: d})
			} else {
				p := s.Dequeue()
				if p != nil && p.DSCP != netsim.DSCPEF && s.EFLen() > 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestDomainEndToEndPremiumProtection(t *testing.T) {
	// a --- edge === core --- b with a 10 Mb/s bottleneck between the
	// routers. A premium UDP flow with a 5 Mb/s reservation competes
	// with a best-effort UDP blast; the premium flow must get its rate.
	k := sim.New(1)
	n := netsim.New(k)
	a, edge, core, b := n.AddNode("a"), n.AddNode("edge"), n.AddNode("core"), n.AddNode("b")
	n.Connect(a, edge, 100*units.Mbps, time.Millisecond)
	bott := n.Connect(edge, core, 10*units.Mbps, time.Millisecond)
	n.Connect(core, b, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()

	d := NewDomain(k)
	d.EnableEF(bott.A(), netsim.DefaultQueueCap, netsim.DefaultQueueCap)
	// Premium: UDP from a port 1000 -> b port 2000, 5 Mb/s.
	sport, dport := netsim.Port(1000), netsim.Port(2000)
	udp := netsim.ProtoUDP
	m := Match{Src: addrPtr(a.Addr()), Dst: addrPtr(b.Addr()), SrcPort: &sport, DstPort: &dport, Proto: &udp}
	d.ReserveFlow(n.Links()[0].B(), m, 5*units.Mbps, DepthForRate(5*units.Mbps, NormalBucketDivisor), ExceedDrop)

	sa := netsim.NewUDPStack(a)
	sb := netsim.NewUDPStack(b)
	prem, _ := sa.Bind(sport)
	blast, _ := sa.Bind(0)
	sink, _ := sb.Bind(dport)
	sinkBlast, _ := sb.Bind(2001)

	// Premium sender: 4.5 Mb/s in 1000-byte datagrams.
	k.Spawn("premium", func(ctx *sim.Ctx) {
		gap := units.BitRate(4.5 * float64(units.Mbps)).TimeToSend(1000)
		for ctx.Now() < 10*time.Second {
			prem.SendTo(b.Addr(), dport, 1000)
			ctx.Sleep(gap)
		}
	})
	// Blaster: 50 Mb/s best effort.
	k.Spawn("blast", func(ctx *sim.Ctx) {
		gap := (50 * units.Mbps).TimeToSend(1000)
		for ctx.Now() < 10*time.Second {
			blast.SendTo(b.Addr(), 2001, 1000)
			ctx.Sleep(gap)
		}
	})
	premBytes, blastBytes := int64(0), int64(0)
	sink.Serve(func(dg netsim.Datagram) { premBytes += int64(dg.Len) })
	sinkBlast.Serve(func(dg netsim.Datagram) { blastBytes += int64(dg.Len) })
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	premRate := units.RateOf(units.ByteSize(premBytes), 10*time.Second)
	blastRate := units.RateOf(units.ByteSize(blastBytes), 10*time.Second)
	if premRate < 4.2*units.Mbps {
		t.Fatalf("premium flow starved: %v", premRate)
	}
	// Best effort gets roughly the leftover capacity, far below its
	// 50 Mb/s offered load.
	if blastRate > 7*units.Mbps {
		t.Fatalf("best effort got %v, expected <7Mb/s leftover", blastRate)
	}
}

func TestFlowReservationModifyRemove(t *testing.T) {
	k := sim.New(1)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, 10*units.Mbps, 0)
	n.ComputeRoutes()
	d := NewDomain(k)
	ifc := l.B()
	fr := d.ReserveFlow(ifc, Match{}, units.Mbps, 1500, ExceedDrop)
	if !fr.active || fr.tb.Rate() != units.Mbps {
		t.Fatal("reservation should be active at 1 Mb/s")
	}
	fr.SetRate(2 * units.Mbps)
	fr.SetDepth(3000)
	if fr.tb.Rate() != 2*units.Mbps || fr.tb.Depth() != 3000 {
		t.Fatal("modify did not stick")
	}
	if len(d.Classifier(ifc).Rules()) != 1 {
		t.Fatal("rule not installed")
	}
	fr.Remove()
	fr.Remove() // idempotent
	if fr.active || len(d.Classifier(ifc).Rules()) != 0 {
		t.Fatal("rule not removed")
	}
}

func TestEnableEFIdempotent(t *testing.T) {
	k := sim.New(1)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, units.Mbps, 0)
	n.ComputeRoutes()
	d := NewDomain(k)
	// An EF band that holds one 1000-byte packet, then a second call
	// that would install a roomier scheduler if it were not ignored.
	d.EnableEF(l.A(), 1500, units.MB)
	d.EnableEF(l.A(), units.MB, units.MB)
	var errs []error
	for i := 0; i < 3; i++ {
		// The first packet goes straight to the wire, the second
		// fills the band, the third overflows it.
		errs = append(errs, a.Send(&netsim.Packet{Src: a.Addr(), Dst: b.Addr(), Proto: netsim.ProtoUDP, DSCP: netsim.DSCPEF, Size: 1000}))
	}
	if errs[0] != nil || errs[1] != nil || errs[2] != netsim.ErrEgressDrop {
		t.Fatalf("sends = %v, want the third dropped by the first EnableEF's band", errs)
	}
}

func addrPtr(a netsim.Addr) *netsim.Addr { return &a }
