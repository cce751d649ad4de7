package tcpsim

import (
	"fmt"
	"io"
	"testing"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// BenchmarkTCPTransfer measures a complete 1 MB connection lifecycle:
// handshake, windowed transfer across a 100 Mbps / 4 ms link, and
// teardown. The allocs/op figure tracks the per-segment cost of the
// whole stack (segments, packets, timers, ACK clock).
func BenchmarkTCPTransfer(b *testing.B) {
	const total = 1 * units.MB
	k, sa, sb := testNet(100*units.Mbps, time.Millisecond, DefaultOptions())
	var port netsim.Port = netPortBase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh port per iteration keeps connections distinct while
		// reusing the same kernel, stacks, and pools.
		port++
		p := port
		var received units.ByteSize
		k.Spawn("server", func(ctx *sim.Ctx) {
			l, err := sb.Listen(p)
			if err != nil {
				b.Error(err)
				return
			}
			defer l.Close()
			c, err := l.Accept(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			for {
				n, err := c.Read(ctx, 64*units.KB)
				received += n
				if err == io.EOF {
					return
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
		k.Spawn("client", func(ctx *sim.Ctx) {
			c, err := sa.Dial(ctx, sb.Node().Addr(), p)
			if err != nil {
				b.Error(err)
				return
			}
			if err := c.Write(ctx, total); err != nil {
				b.Error(err)
				return
			}
			if err := c.Drain(ctx); err != nil {
				b.Error(err)
				return
			}
			c.Close()
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if received != total {
			b.Fatalf("received %v, want %v", received, total)
		}
	}
}

// BenchmarkConnMessageExchange measures one small-message round of
// the comms path over an established connection: WriteMsg, the data
// segment's hop and demux, marker absorption, ReadMsg, and the ACK.
func BenchmarkConnMessageExchange(b *testing.B) {
	for _, size := range []units.ByteSize{64, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			k := exchangeLoop(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.RunFor(time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// netPortBase keeps benchmark ports clear of the stacks' ephemeral
// range.
const netPortBase = 2000
