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

func TestTokenBucketStartsFull(t *testing.T) {
	k := sim.New(1)
	tb := NewTokenBucket(k, units.Mbps, 10000)
	if tb.Tokens() != 10000 {
		t.Fatalf("tokens = %d, want 10000", tb.Tokens())
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
		if got := tb.Tokens(); got != 2000 {
			t.Errorf("tokens after 2ms = %d, want 2000", got)
		}
	})
	k.After(time.Hour, func() {
		if got := tb.Tokens(); got != 5000 {
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
	k.Spawn("src", func(ctx *sim.Ctx) {
		for ctx.Now() < 10*time.Second {
			tb.Conform(pkt)
			ctx.Sleep(time.Millisecond) // offered: 1000 bytes/ms
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := tb.Stats()
	want := int64(rate.BytesIn(10 * time.Second))
	got := st.ConformBytes
	if got < want*95/100 || got > want*105/100+4000 {
		t.Fatalf("conforming bytes = %d, want ~%d", got, want)
	}
	if st.ExceedPkts == 0 {
		t.Fatal("expected out-of-profile packets at 2x offered load")
	}
}

// Conservation: conform+exceed counters account for every offered
// packet, and tokens never exceed depth or go negative.
func TestTokenBucketConservationProperty(t *testing.T) {
	f := func(seed int64, depthKB uint8, steps uint8) bool {
		k := sim.New(seed)
		depth := units.ByteSize(depthKB%32+1) * units.KB
		tb := NewTokenBucket(k, units.Mbps, depth)
		rng := sim.NewRNG(seed)
		offered := uint64(0)
		ok := true
		k.Spawn("p", func(ctx *sim.Ctx) {
			for i := 0; i < int(steps); i++ {
				ctx.Sleep(time.Duration(rng.Intn(5000)) * time.Microsecond)
				tb.Conform(units.ByteSize(rng.Intn(3000) + 1))
				offered++
				tok := tb.Tokens()
				if tok < 0 || tok > depth {
					ok = false
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		st := tb.Stats()
		return ok && st.ConformPkts+st.ExceedPkts == offered
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
		if got := tb.Tokens(); got != 1000 {
			t.Errorf("tokens = %d, want 1000", got)
		}
	})
	k.After(time.Second, func() {
		if got := tb.Tokens(); got != 1000 {
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

func TestDepthForDelay(t *testing.T) {
	// 40 Mb/s × 2 ms = 80 Kb = 10000 bytes.
	if got := DepthForDelay(40*units.Mbps, 2*time.Millisecond); got != 10000 {
		t.Fatalf("DepthForDelay = %d, want 10000", got)
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
	if !MatchDSCP(netsim.DSCPEF).Matches(p) {
		t.Fatal("DSCP match failed")
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	k := sim.New(1)
	c := NewClassifier(k)
	tcp := netsim.ProtoTCP
	c.AddRule(&Rule{Match: Match{Proto: &tcp}, Mark: netsim.DSCPEF})
	c.AddRule(&Rule{Match: Match{}, Mark: netsim.DSCPBestEffort})
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
	c := NewClassifier(k)
	c.AddRule(&Rule{Match: Match{}, Mark: netsim.DSCPBestEffort})
	c.InsertRule(&Rule{Match: Match{}, Mark: netsim.DSCPEF})
	p := c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 100))
	if p.DSCP != netsim.DSCPEF {
		t.Fatal("inserted rule should take precedence")
	}
}

func TestClassifierNoMatchPassthrough(t *testing.T) {
	k := sim.New(1)
	c := NewClassifier(k)
	udp := netsim.ProtoUDP
	c.AddRule(&Rule{Match: Match{Proto: &udp}, Mark: netsim.DSCPEF})
	p := mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 100)
	got := c.Filter(p)
	if got != p || got.DSCP != netsim.DSCPBestEffort {
		t.Fatal("unmatched packet should pass unchanged")
	}
}

func TestPolicingDropsExceedingPackets(t *testing.T) {
	k := sim.New(1)
	c := NewClassifier(k)
	tb := NewTokenBucket(k, 0, 2500) // no refill: only the initial burst passes
	rule := c.AddRule(&Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedDrop})
	passed := 0
	for i := 0; i < 5; i++ {
		if c.Filter(mkPkt(1, 2, 1, 2, netsim.ProtoUDP, 1000)) != nil {
			passed++
		}
	}
	if passed != 2 {
		t.Fatalf("passed = %d, want 2", passed)
	}
	st := rule.Stats()
	if st.MatchedPkts != 5 || st.DroppedPkts != 3 {
		t.Fatalf("rule stats = %+v", st)
	}
}

func TestPolicingRemark(t *testing.T) {
	k := sim.New(1)
	c := NewClassifier(k)
	tb := NewTokenBucket(k, 0, 1000)
	c.AddRule(&Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedRemark})
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
	efD, beD := s.Drops()
	if efD != 1 || beD != 1 {
		t.Fatalf("drops = %d/%d, want 1/1", efD, beD)
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
	d.EnableEF(bott.IfaceOn(edge), netsim.DefaultQueueCap, netsim.DefaultQueueCap)
	// Premium: UDP from a port 1000 -> b port 2000, 5 Mb/s.
	sport, dport := netsim.Port(1000), netsim.Port(2000)
	udp := netsim.ProtoUDP
	m := Match{Src: addrPtr(a.Addr()), Dst: addrPtr(b.Addr()), SrcPort: &sport, DstPort: &dport, Proto: &udp}
	d.ReserveFlow(n.Links()[0].IfaceOn(edge), m, 5*units.Mbps, DepthForRate(5*units.Mbps, NormalBucketDivisor), ExceedDrop)

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
			prem.SendTo(b.Addr(), dport, 1000, nil)
			ctx.Sleep(gap)
		}
	})
	// Blaster: 50 Mb/s best effort.
	k.Spawn("blast", func(ctx *sim.Ctx) {
		gap := (50 * units.Mbps).TimeToSend(1000)
		for ctx.Now() < 10*time.Second {
			blast.SendTo(b.Addr(), 2001, 1000, nil)
			ctx.Sleep(gap)
		}
	})
	premBytes, blastBytes := int64(0), int64(0)
	k.Spawn("sink", func(ctx *sim.Ctx) {
		for {
			dg, err := sink.Recv(ctx)
			if err != nil {
				return
			}
			premBytes += int64(dg.Len)
		}
	})
	k.Spawn("sinkBlast", func(ctx *sim.Ctx) {
		for {
			dg, err := sinkBlast.Recv(ctx)
			if err != nil {
				return
			}
			blastBytes += int64(dg.Len)
		}
	})
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
	ifc := l.IfaceOn(b)
	fr := d.ReserveFlow(ifc, Match{}, units.Mbps, 1500, ExceedDrop)
	if !fr.Active() || fr.Rate() != units.Mbps {
		t.Fatal("reservation should be active at 1 Mb/s")
	}
	fr.SetRate(2 * units.Mbps)
	fr.SetDepth(3000)
	if fr.Rate() != 2*units.Mbps || fr.Depth() != 3000 {
		t.Fatal("modify did not stick")
	}
	if len(d.Classifier(ifc).Rules()) != 1 {
		t.Fatal("rule not installed")
	}
	fr.Remove()
	fr.Remove() // idempotent
	if fr.Active() || len(d.Classifier(ifc).Rules()) != 0 {
		t.Fatal("rule not removed")
	}
}

func TestEnableEFIdempotent(t *testing.T) {
	k := sim.New(1)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, units.Mbps, 0)
	d := NewDomain(k)
	d.EnableEF(l.IfaceOn(a), units.MB, units.MB)
	q := l.IfaceOn(a).Queue()
	d.EnableEF(l.IfaceOn(a), units.MB, units.MB)
	if l.IfaceOn(a).Queue() != q {
		t.Fatal("second EnableEF replaced the queue")
	}
}

func addrPtr(a netsim.Addr) *netsim.Addr { return &a }

func TestPoliceAggregateAtDomainIngress(t *testing.T) {
	// upstream --- border === inner --- dst: the upstream domain
	// pre-marks EF beyond its agreed aggregate; the border router's
	// domain-ingress policer must clamp the aggregate to the agreed
	// rate while passing conforming traffic.
	k := sim.New(1)
	n := netsim.New(k)
	up, border, inner, dst := n.AddNode("up"), n.AddNode("border"), n.AddNode("inner"), n.AddNode("dst")
	n.Connect(up, border, 100*units.Mbps, time.Millisecond)
	n.Connect(border, inner, 100*units.Mbps, time.Millisecond)
	n.Connect(inner, dst, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	d := NewDomain(k)
	d.EnableEFAll(border, inner)
	// Agreed premium aggregate from upstream: 5 Mb/s.
	agg := d.PoliceAggregate(n.Links()[0].IfaceOn(border), 5*units.Mbps, DepthForRate(5*units.Mbps, NormalBucketDivisor))

	src := up.UDPStack()
	sink := dst.UDPStack()
	sock, _ := src.Bind(0)
	sock.SetDSCP(netsim.DSCPEF) // upstream pre-marks everything EF
	recvSock, _ := sink.Bind(700)
	var rx int64
	k.Spawn("sink", func(ctx *sim.Ctx) {
		for {
			dg, err := recvSock.Recv(ctx)
			if err != nil {
				return
			}
			rx += int64(dg.Len)
		}
	})
	// Offer 20 Mb/s of "premium" from upstream for 10 s.
	k.Spawn("src", func(ctx *sim.Ctx) {
		gap := (20 * units.Mbps).TimeToSend(1028)
		for ctx.Now() < 10*time.Second {
			sock.SendTo(dst.Addr(), 700, 1000, nil)
			ctx.Sleep(gap)
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(units.ByteSize(rx), 10*time.Second)
	if rate > 6*units.Mbps {
		t.Fatalf("aggregate not policed: %v passed, agreed 5 Mb/s", rate)
	}
	if rate < 4*units.Mbps {
		t.Fatalf("conforming aggregate over-policed: %v", rate)
	}
	if agg.Bucket().Stats().ExceedPkts == 0 {
		t.Fatal("expected out-of-profile aggregate drops")
	}
}
