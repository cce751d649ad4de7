package trafficgen

import (
	"testing"
	"time"

	"mpichgq/internal/garnet"
	"mpichgq/internal/units"
)

// BenchmarkBlasterVirtualSecond measures one virtual second of the
// Figure 5 background: a packet-level blaster offering 160 Mb/s of
// 1000-byte datagrams with 10% jitter from the contention source to
// its sink across GARNET's bottleneck. Building the testbed is not
// timed.
func BenchmarkBlasterVirtualSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := garnet.New(1)
		bl := &UDPBlaster{Rate: 160 * units.Mbps, PacketSize: 1000, Jitter: 0.1}
		if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tb.K.RunUntil(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStormVirtualSecond measures the first virtual second of a
// Figure I style admission storm at 10x the broker's capacity: 1000
// open-loop arrivals a second and four closed-loop clients, all
// adaptive, against a domain with every overload control on. Building
// the domain is not timed.
func BenchmarkStormVirtualSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newStormRig(1, 1000, true, 10*time.Second)
		r.storm.Run(r.k)
		b.StartTimer()
		if err := r.k.RunUntil(time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.k.Close()
		b.StartTimer()
	}
}
