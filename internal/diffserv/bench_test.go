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
	c := NewClassifier(k)
	const rate = 10 * units.Mbps
	other := netsim.FlowKey{Src: 3, Dst: 4, SrcPort: 5, DstPort: 6, Proto: netsim.ProtoTCP}
	c.AddRule(&Rule{Match: MatchFlow(other), Mark: netsim.DSCPEF})
	p := mkPkt(1, 2, 1, 2, netsim.ProtoTCP, 1000)
	c.AddRule(&Rule{
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
		if err := k.RunFor(gap); err != nil {
			b.Fatal(err)
		}
	}
}
