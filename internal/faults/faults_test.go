package faults

import (
	"testing"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// line builds a — b — c with 10 Mb/s links.
// handlerFunc adapts a function to the netsim.Handler interface.
type handlerFunc func(p *netsim.Packet)

func (f handlerFunc) HandlePacket(p *netsim.Packet) { f(p) }

func line(seed int64) (*sim.Kernel, *netsim.Network) {
	k := sim.New(seed)
	n := netsim.New(k)
	a, b, c := n.AddNode("a"), n.AddNode("b"), n.AddNode("c")
	n.Connect(a, b, 10*units.Mbps, time.Millisecond)
	n.Connect(b, c, 10*units.Mbps, time.Millisecond)
	n.ComputeRoutes()
	return k, n
}

func TestFlapSchedulesTransitions(t *testing.T) {
	k, n := line(1)
	sc := NewScenario("t").Flap("a-b", 2*time.Second, 5*time.Second)
	if _, err := sc.Apply(n); err != nil {
		t.Fatal(err)
	}
	l := n.Link("a-b")
	k.After(3*time.Second, func() {
		if l.Up() {
			t.Error("link should be down at t=3s")
		}
	})
	k.After(6*time.Second, func() {
		if !l.Up() {
			t.Error("link should be back up at t=6s")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var injects int
	for _, e := range k.Metrics().Events().Snapshot() {
		if e.Type == metrics.EvFaultInject {
			injects++
		}
	}
	if injects != 2 {
		t.Fatalf("fault-inject events = %d, want 2", injects)
	}
}

func TestUnknownTargetsFailFast(t *testing.T) {
	_, n := line(1)
	if _, err := NewScenario("t").LinkDown(0, "nope").Apply(n); err == nil {
		t.Fatal("unknown link should fail Apply")
	}
	if _, err := NewScenario("t").Loss("nope", 0, time.Second, 0.5).Apply(n); err == nil {
		t.Fatal("unknown loss link should fail Apply")
	}
}

// lossDrops runs a fixed UDP stream through a loss window and returns
// the loss and corruption drops the flight recorder saw.
func lossDrops(t *testing.T, seed int64, corrupt bool) (uint64, uint64) {
	t.Helper()
	k, n := line(seed)
	a, c := n.Nodes()[0], n.Nodes()[2]
	c.Handle(netsim.ProtoUDP, handlerFunc(func(p *netsim.Packet) {}))
	sc := NewScenario("t")
	if corrupt {
		sc.Corrupt("b-c", 0, 10*time.Second, 0.3)
	} else {
		sc.Loss("b-c", 0, 10*time.Second, 0.3)
	}
	if _, err := sc.Apply(n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		k.At(at, sim.PrioNormal, func() {
			a.Send(&netsim.Packet{Src: a.Addr(), Dst: c.Addr(), Proto: netsim.ProtoUDP, Size: 500})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var lost, corrupted uint64
	for _, e := range k.Metrics().Events().Snapshot() {
		switch {
		case e.Type != metrics.EvFaultInject:
		case e.Subject == actLossDrop:
			lost++
		case e.Subject == actCorruptDrop:
			corrupted++
		}
	}
	return lost, corrupted
}

func TestLossWindowIsDeterministic(t *testing.T) {
	loss1, corr1 := lossDrops(t, 7, false)
	loss2, corr2 := lossDrops(t, 7, false)
	if loss1 != loss2 {
		t.Fatalf("same seed, different loss counts: %d vs %d", loss1, loss2)
	}
	if corr1 != 0 || corr2 != 0 {
		t.Fatal("loss window must not report corruption drops")
	}
	// ~30% of 200 packets; allow a wide band but reject degenerate
	// filters that drop nothing or everything.
	if loss1 < 20 || loss1 > 120 {
		t.Fatalf("loss drops = %d, outside plausible band for p=0.3", loss1)
	}
}

func TestCorruptionCountsSeparately(t *testing.T) {
	loss, corr := lossDrops(t, 7, true)
	if loss != 0 {
		t.Fatal("corruption window must not report loss drops")
	}
	if corr < 20 || corr > 120 {
		t.Fatalf("corrupt drops = %d, outside plausible band for p=0.3", corr)
	}
}

func TestRandomScenarioDeterministic(t *testing.T) {
	links := []string{"a-b", "b-c"}
	s1 := RandomScenario(sim.NewRNG(42), links, 8, time.Minute)
	s2 := RandomScenario(sim.NewRNG(42), links, 8, time.Minute)
	if len(s1.actions) != len(s2.actions) {
		t.Fatalf("action counts differ: %d vs %d", len(s1.actions), len(s2.actions))
	}
	for i := range s1.actions {
		if s1.actions[i] != s2.actions[i] {
			t.Fatalf("action %d differs: %+v vs %+v", i, s1.actions[i], s2.actions[i])
		}
	}
	// All faults must be repaired by the horizon.
	for _, a := range s1.actions {
		if a.at > time.Minute || a.until > time.Minute {
			t.Fatalf("action extends past horizon: %+v", a)
		}
	}
}
