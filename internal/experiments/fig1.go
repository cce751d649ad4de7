package experiments

import (
	"fmt"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Figure1Result holds the oscillating-bandwidth trace of Figure 1.
type Figure1Result struct {
	Offered   units.BitRate
	Reserved  units.BitRate
	Bandwidth trace.Series
	Mean      units.BitRate
	Min, Max  units.BitRate
}

// RunFigure1 reproduces Figure 1: "a simple TCP program that is
// attempting to send data at approximately 50 Mb/s over a congested
// network, with a reservation that is somewhat too low (40 Mb/s). ...
// every time TCP kicks into slow start mode, the bandwidth drops
// significantly, then slowly increases until packets are dropped
// again." 100-second trace, 1-second buckets.
func RunFigure1(cfg Config) Figure1Result {
	cfg = cfg.withDefaults()
	const offered = 50 * units.Mbps
	const reserved = 40 * units.Mbps
	dur := cfg.scale(100 * time.Second)

	tb := garnet.New(cfg.Seed)
	defer tb.Close()

	// Figure 1's multi-second sawtooth implies a wide-area round trip
	// (GARNET connected to ESnet sites): at WAN RTTs, each slow-start
	// collapse takes seconds to climb back, producing the figure's
	// deep slow oscillation. Run the flow to a remote site at ~100 ms
	// RTT, with the contention crossing the same wide-area link.
	remote := tb.AddSite("esnet", 155*units.Mbps, 25*time.Millisecond)
	// Always packet-level: the figure measures a best-effort TCP flow,
	// and fluid contention would starve it outright instead of letting
	// it scavenge leftover capacity (see docs/performance.md).
	bl := trafficgen.NewBackground(trafficgen.BackgroundOptions{
		Rate: ContentionRate, PacketSize: 1000, Jitter: 0.1,
	})
	if err := bl.Run(tb.CompSrc, remote, 9000); err != nil {
		panic(err)
	}

	// A 2000-era stack: no congestion-window validation (RFC 2861
	// postdates it), so cwnd keeps growing while app-limited and the
	// overshoot past the policer is large. Buffers sized above the
	// 40 Mb/s × 100 ms BDP (~500 KB).
	opts := tcpsim.DefaultOptions()
	opts.DisableCWV = true
	opts.SndBuf = units.MB
	opts.RcvBuf = units.MB
	sa := tcpsim.NewStack(tb.PremSrc, opts)
	sb := tcpsim.NewStack(remote, opts)
	bw := trace.NewBandwidthTrace(cfg.scale(time.Second))

	const port = 7000
	tb.K.Spawn("fig1-server", func(ctx *sim.Ctx) {
		l, err := sb.Listen(port)
		if err != nil {
			panic(err)
		}
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, 256*units.KB)
			bw.Add(ctx.Now(), n)
			if err != nil {
				return
			}
		}
	})
	tb.K.Spawn("fig1-client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, remote.Addr(), port)
		if err != nil {
			panic(err)
		}
		// Reserve 40 Mb/s for this flow — "somewhat too low".
		flow := c.FlowKey()
		if _, err := tb.Gara.Reserve(gara.Spec{
			Type:      gara.ResourceNetwork,
			Flow:      diffserv.MatchFlow(flow),
			Bandwidth: reserved,
		}); err != nil {
			panic(err)
		}
		// Offer ~50 Mb/s: 6250-byte application writes paced each
		// millisecond.
		const chunk = 6250 * units.Byte
		gap := offered.TimeToSend(chunk)
		for ctx.Now() < dur {
			if err := c.Write(ctx, chunk); err != nil {
				return
			}
			ctx.Sleep(gap)
		}
		c.Close()
	})
	if err := tb.K.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure 1: %v", err))
	}
	series := bw.Series("fig1-tcp-flow")
	res := Figure1Result{
		Offered:   offered,
		Reserved:  reserved,
		Bandwidth: series,
		Mean:      bw.MeanRate(0, dur),
	}
	first := true
	for _, p := range series.Points {
		// Skip the slow-start warmup bucket when computing the swing.
		if p.T < cfg.scale(2*time.Second) {
			continue
		}
		r := units.BitRate(p.V) * units.Kbps
		if first || r < res.Min {
			res.Min = r
		}
		if first || r > res.Max {
			res.Max = r
		}
		first = false
	}
	return res
}
