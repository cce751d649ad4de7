package diffserv

import (
	"testing"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// BenchmarkClassifierPoliceMark measures one packet through an edge
// classifier: a miss on another flow's rule, then a hit on a policed
// EF rule whose token bucket is offered twice its rate, so about half
// the packets conform and are marked EF and half are remarked best
// effort.
func BenchmarkClassifierPoliceMark(b *testing.B) {
	k := sim.New(1)
	const rate = 10 * units.Mbps
	other := netsim.FlowKey{Src: 3, Dst: 4, SrcPort: 5, DstPort: 6, Proto: netsim.ProtoTCP}
	p := mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 1000)
	c := newClassifier(k, &Rule{Match: MatchFlow(other), Mark: netsim.DSCPEF}, &Rule{
		Match:  MatchFlow(p.Key()),
		Mark:   netsim.DSCPEF,
		Police: NewTokenBucket(k, rate, DepthForRate(rate, NormalBucketDivisor)),
		Exceed: ExceedRemark,
	})
	gap := (2 * rate).TimeToSend(p.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DSCP = netsim.DSCPBestEffort
		if c.Filter(p) == nil {
			b.Fatal("remarking rule dropped a packet")
		}
		if err := k.RunUntil(k.Now() + gap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierInsertRule measures installing and removing one
// front rule on a classifier that holds 300 rules, as a reservation's
// enforcement does on an edge router with a full book. Both shift the
// rule list in place; the rule's metric handles come from the
// classifier's per-mark cache.
func BenchmarkClassifierInsertRule(b *testing.B) {
	k := sim.New(1)
	c := newClassifier(k)
	for i := 0; i < 300; i++ {
		key := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: netsim.Port(i), DstPort: 9, Proto: netsim.ProtoUDP}
		c.InsertRule(&Rule{Match: MatchFlow(key), Mark: netsim.DSCPEF})
	}
	ef := netsim.DSCPEF
	r := &Rule{Match: Match{DSCP: &ef}, Mark: netsim.DSCPEF}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InsertRule(r)
		if !c.RemoveRule(r) {
			b.Fatal("inserted rule not found")
		}
	}
}
