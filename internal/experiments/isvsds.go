package experiments

import (
	"fmt"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/intserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// ISvsDSResult quantifies §2's architectural comparison: Integrated
// Services holds per-flow state at every router ("too heavy"), while
// Differentiated Services keeps per-flow state only at the edge and
// treats the core as an aggregate — yet both protect premium flows.
type ISvsDSResult struct {
	Flows int
	// Router-state entries per node under each architecture.
	ISCoreState, ISEdgeState int
	DSCoreRules, DSEdgeRules int
	// Mean achieved rate across premium flows, each offered
	// PerFlowRate under full contention.
	PerFlowRate         units.BitRate
	ISAchieved          units.BitRate
	DSAchieved          units.BitRate
	UnprotectedAchieved units.BitRate
}

// RunISvsDS runs nFlows premium UDP streams across the testbed under
// contention, three ways: RSVP/WFQ at every router (IS), GARA/EF (DS),
// and unprotected, reporting state counts and delivered bandwidth.
func RunISvsDS(cfg Config, nFlows int) ISvsDSResult {
	cfg = cfg.withDefaults()
	dur := cfg.scale(10 * time.Second)
	const perFlow = 2 * units.Mbps
	res := ISvsDSResult{Flows: nFlows, PerFlowRate: perFlow}

	run := func(mode string) (units.BitRate, *garnet.Testbed, any) {
		tb := garnet.NewWithOptions(garnet.Options{Seed: cfg.Seed})
		cfg.blast(tb, 0, 0)
		var rsvp *intserv.RSVP
		if mode == "is" {
			// Replace the DS queues with WFQ at every router egress
			// as RSVP installs state; fresh testbed so EF queues from
			// the DS domain are irrelevant for these flows.
			rsvp = intserv.NewRSVP(tb.Net)
		}
		var rx int64
		sink := tb.PremDst.UDPStack()
		for i := 0; i < nFlows; i++ {
			port := netsim.Port(6000 + i)
			s, err := sink.Bind(port)
			if err != nil {
				panic(err)
			}
			s.Serve(func(dg netsim.Datagram) { rx += int64(dg.Len) })
		}
		src := tb.PremSrc.UDPStack()
		for i := 0; i < nFlows; i++ {
			port := netsim.Port(6000 + i)
			sock, err := src.Bind(port)
			if err != nil {
				panic(err)
			}
			flow := netsim.FlowKey{
				Src: tb.PremSrc.Addr(), Dst: tb.PremDst.Addr(),
				SrcPort: port, DstPort: port, Proto: netsim.ProtoUDP,
			}
			switch mode {
			case "is":
				if _, err := rsvp.Reserve(flow, perFlow); err != nil {
					panic(err)
				}
			case "ds":
				if _, err := tb.Gara.Reserve(gara.Spec{
					Type: gara.ResourceNetwork, Flow: diffserv.MatchFlow(flow), Bandwidth: perFlow,
				}); err != nil {
					panic(err)
				}
			}
			tb.K.Spawn(fmt.Sprintf("flow-%d", i), func(ctx *sim.Ctx) {
				const payload = units.KB
				gap := units.BitRate(float64(perFlow) * 0.9).TimeToSend(payload + netsim.UDPHeader + netsim.IPHeader)
				for ctx.Now() < dur {
					sock.SendTo(tb.PremDst.Addr(), port, payload)
					ctx.Sleep(gap)
				}
			})
		}
		if err := tb.K.RunUntil(dur); err != nil {
			panic(err)
		}
		perFlowAchieved := units.RateOf(units.ByteSize(rx), dur) / units.BitRate(nFlows)
		return perFlowAchieved, tb, rsvp
	}

	isRate, isTB, rsvpAny := run("is")
	rsvp := rsvpAny.(*intserv.RSVP)
	res.ISAchieved = isRate
	res.ISCoreState = rsvp.StateAt(isTB.Core)
	res.ISEdgeState = rsvp.StateAt(isTB.Edge1)
	isTB.Close()

	dsRate, dsTB, _ := run("ds")
	res.DSAchieved = dsRate
	// DS core state: classifier rules installed on core/edge2
	// interfaces (none — classification happens at edge1's ingress).
	res.DSCoreRules = dsRulesAt(dsTB, dsTB.Core)
	res.DSEdgeRules = dsRulesAt(dsTB, dsTB.Edge1)
	dsTB.Close()

	beRate, beTB, _ := run("none")
	beTB.Close()
	res.UnprotectedAchieved = beRate
	return res
}

// dsRulesAt counts classifier rules installed on a node's interfaces.
func dsRulesAt(tb *garnet.Testbed, nd *netsim.Node) int {
	n := 0
	for _, ifc := range nd.Ifaces() {
		n += len(tb.Domain.Classifier(ifc).Rules())
	}
	return n
}

// ISvsDSTable renders the comparison.
func ISvsDSTable(r ISvsDSResult) trace.Table {
	t := trace.Table{
		Title: fmt.Sprintf("IS vs DS: %d premium flows at %v each under contention (§2's architectural comparison)",
			r.Flows, r.PerFlowRate),
		Headers: []string{"architecture", "core state", "edge state", "per-flow achieved"},
	}
	t.Add("IntServ (RSVP+WFQ)", fmt.Sprint(r.ISCoreState), fmt.Sprint(r.ISEdgeState), r.ISAchieved.String())
	t.Add("DiffServ (GARA+EF)", fmt.Sprint(r.DSCoreRules), fmt.Sprint(r.DSEdgeRules), r.DSAchieved.String())
	t.Add("best effort", "0", "0", r.UnprotectedAchieved.String())
	return t
}
