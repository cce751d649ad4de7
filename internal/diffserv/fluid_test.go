package diffserv

import (
	"testing"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

func fluidKey(srcPort netsim.Port) netsim.FlowKey {
	return netsim.FlowKey{Src: 1, Dst: 2, SrcPort: srcPort, DstPort: 9000, Proto: netsim.ProtoUDP}
}

func TestFilterFluidMarksWithoutPolicer(t *testing.T) {
	k := sim.New(1)
	c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF})
	out := c.FilterFluid(1, fluidKey(40001),
		[]netsim.FluidComponent{{Rate: 1000, DSCP: netsim.DSCPBestEffort}})
	if len(out) != 1 || out[0].DSCP != netsim.DSCPEF || out[0].Rate != 1000 {
		t.Fatalf("marked components = %+v, want one EF at 1000", out)
	}
}

func TestFilterFluidPolicesSteadyRate(t *testing.T) {
	// 4 Mb/s offered against a 1 Mb/s profile: the conforming quarter
	// is marked EF, and the exceed action decides the rest's fate.
	k := sim.New(1)
	for _, tc := range []struct {
		action ExceedAction
		want   int
	}{
		{ExceedDrop, 1},
		{ExceedRemark, 2},
	} {
		tb := NewTokenBucket(k, 1*units.Mbps, 1500)
		c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: tc.action})
		out := c.FilterFluid(1, fluidKey(40001),
			[]netsim.FluidComponent{{Rate: 4_000_000 / 8, DSCP: netsim.DSCPBestEffort}})
		if len(out) != tc.want {
			t.Fatalf("action %v: %d components, want %d (%+v)", tc.action, len(out), tc.want, out)
		}
		if out[0].DSCP != netsim.DSCPEF || out[0].Rate != 1_000_000/8 {
			t.Fatalf("action %v: conforming component %+v, want EF at 125000 B/s", tc.action, out[0])
		}
		if tc.action == ExceedRemark {
			if out[1].DSCP != netsim.DSCPBestEffort || out[1].Rate != 3_000_000/8 {
				t.Fatalf("remarked component %+v, want BE at 375000 B/s", out[1])
			}
		}
	}
}

func TestFilterFluidAggregateBudgetShared(t *testing.T) {
	// Two flows through one aggregate policer in the same refresh
	// generation share its rate budget; a new generation resets it.
	k := sim.New(1)
	tb := NewTokenBucket(k, 1*units.Mbps, 1500)
	c := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedDrop})
	in := []netsim.FluidComponent{{Rate: 100_000, DSCP: netsim.DSCPBestEffort}}

	first := c.FilterFluid(7, fluidKey(40001), in)
	if len(first) != 1 || first[0].Rate != 100_000 {
		t.Fatalf("first flow got %+v, want full 100000 B/s (budget 125000)", first)
	}
	second := c.FilterFluid(7, fluidKey(40002), in)
	if len(second) != 1 || second[0].Rate != 25_000 {
		t.Fatalf("second flow got %+v, want remaining 25000 B/s", second)
	}
	third := c.FilterFluid(7, fluidKey(40003), in)
	if len(third) != 0 {
		t.Fatalf("third flow got %+v, want empty (budget exhausted)", third)
	}
	reset := c.FilterFluid(8, fluidKey(40004), in)
	if len(reset) != 1 || reset[0].Rate != 100_000 {
		t.Fatalf("new generation got %+v, want budget reset", reset)
	}
}

func TestPrioSchedulerBandOccupancy(t *testing.T) {
	s := NewPrioScheduler(10_000, 20_000)
	if !s.Expedited(netsim.DSCPEF) || s.Expedited(netsim.DSCPBestEffort) {
		t.Fatal("Expedited mapping wrong")
	}
	s.Enqueue(&netsim.Packet{DSCP: netsim.DSCPEF, Size: 500})
	s.Enqueue(&netsim.Packet{DSCP: netsim.DSCPBestEffort, Size: 700})
	if b, capacity := s.BandOccupancy(true); b != 500 || capacity != 10_000 {
		t.Fatalf("EF band = (%v, %v), want (500, 10000)", b, capacity)
	}
	if b, capacity := s.BandOccupancy(false); b != 700 || capacity != 20_000 {
		t.Fatalf("BE band = (%v, %v), want (700, 20000)", b, capacity)
	}
}

// TestFluidThroughEFReservation runs fluid end to end through a
// DiffServ edge: a policed EF reservation carries the conforming share
// at strict priority while the excess is dropped at the edge.
func TestFluidThroughEFReservation(t *testing.T) {
	k := sim.New(1)
	n := netsim.New(k)
	src := n.AddNode("src")
	edge := n.AddNode("edge")
	dst := n.AddNode("dst")
	n.Connect(src, edge, 10*units.Mbps, 0)
	le := n.Connect(edge, dst, 10*units.Mbps, 0)
	n.ComputeRoutes()

	// Edge ingress: police the flow to 2 Mb/s EF, drop the excess.
	tb := NewTokenBucket(k, 2*units.Mbps, 1500)
	cl := newClassifier(k, &Rule{Match: Match{}, Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedDrop})
	for _, ifc := range edge.Ifaces() {
		if ifc.Link() != le {
			ifc.AddIngress(cl) // classify where the flow enters edge
		}
	}
	// Strict-priority scheduler on the edge→dst egress.
	le.A().SetQueue(NewPrioScheduler(48*units.KB, 48*units.KB))

	f := n.NewFluidFlow("bg", src, dst, 9000, 8*units.Mbps, 1000)
	f.Start()
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	// The flow's stop event carries its offered and delivered bytes.
	var offered, delivered int64
	for _, e := range k.Metrics().Events().Snapshot() {
		if e.Type == metrics.EvFluidStop {
			offered, delivered = e.V1, e.V2
		}
	}
	if want := int64((8 * units.Mbps).BytesIn(5 * time.Second)); offered < want-1 || offered > want+1 {
		t.Fatalf("offered %d bytes, want ~%d", offered, want)
	}
	if want := int64((2 * units.Mbps).BytesIn(5 * time.Second)); delivered < want-1 || delivered > want+1 {
		t.Fatalf("delivered %d bytes, want the policed ~%d", delivered, want)
	}
	if loss, _ := k.Metrics().CounterValue("netsim_fluid_loss_bytes_total", "iface", le.A().String()); loss != 0 {
		t.Fatalf("EF lane lost %v bytes, want 0 (policed upstream)", loss)
	}
}
