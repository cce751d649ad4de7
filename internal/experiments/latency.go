package experiments

import (
	"sort"
	"strconv"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// LatencyResult measures the low-latency QoS class, which §4.1 defines
// ("suitable for small message traffic: e.g., certain collective
// operations") but the paper never evaluates: small-message round-trip
// times under full contention, best effort versus low-latency.
type LatencyResult struct {
	// RTT distributions (mean / median / p99) per class.
	BestEffort, LowLatency LatencyStats
	// Uncontended is the baseline RTT on a quiet network.
	Uncontended time.Duration
}

// LatencyStats summarizes one RTT sample set.
type LatencyStats struct {
	Mean, Median, P99 time.Duration
	Rounds            int
}

func summarize(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, s := range sorted {
		total += s
	}
	p99 := sorted[len(sorted)*99/100]
	return LatencyStats{
		Mean:   total / time.Duration(len(sorted)),
		Median: sorted[len(sorted)/2],
		P99:    p99,
		Rounds: len(sorted),
	}
}

// RunLatency measures 1 KB ping-pong RTTs under saturating contention
// with and without the low-latency class, plus the quiet baseline.
func RunLatency(cfg Config) LatencyResult {
	cfg = cfg.withDefaults()
	rounds := int(100 * cfg.TimeScale)
	if rounds < 20 {
		rounds = 20
	}
	measure := func(class gq.QosClass, contended bool) []time.Duration {
		// OC12 access links: with access = bottleneck rate, the
		// blaster's own access link would absorb the overload and the
		// shared router queue would never build. Faster access moves
		// the contention onto the shared hop, where queueing delay —
		// the thing the expedited queue bypasses — accumulates.
		tb := garnet.NewWithOptions(garnet.Options{Seed: cfg.Seed, AccessRate: 622 * units.Mbps})
		defer tb.Close()
		if contended {
			// Always packet-level: the best-effort RTT distribution
			// being measured is exactly the per-packet queueing that
			// fluid mode abstracts away.
			b := trafficgen.NewBackground(trafficgen.BackgroundOptions{
				Rate: 175 * units.Mbps, PacketSize: 1000, Jitter: 0.05,
			})
			if err := b.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
				panic(err)
			}
		}
		job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{})
		agent := gq.NewAgent(tb.Gara, job)
		var samples []time.Duration
		job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
			pc, err := r.PairComm(ctx, 1-r.ID())
			if err != nil {
				panic(err)
			}
			if class != gq.BestEffort {
				attr := &gq.QosAttribute{Class: class, Bandwidth: 200 * units.Kbps, MaxMessageSize: units.KB}
				if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
					panic(err)
				}
			}
			peer := 1 - r.RankIn(pc)
			for i := 0; i < rounds; i++ {
				if r.ID() == 0 {
					start := ctx.Now()
					if err := r.Send(ctx, pc, peer, 0, units.KB, nil); err != nil {
						return
					}
					if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
						return
					}
					samples = append(samples, ctx.Now()-start)
					ctx.Sleep(50 * time.Millisecond)
				} else {
					if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
						return
					}
					if err := r.Send(ctx, pc, peer, 0, units.KB, nil); err != nil {
						return
					}
				}
			}
		})
		// Generous deadline: best-effort rounds can take RTO-scale
		// times each.
		if err := tb.K.RunUntil(time.Duration(2*rounds) * time.Second); err != nil {
			panic(err)
		}
		return samples
	}
	return LatencyResult{
		BestEffort:  summarize(measure(gq.BestEffort, true)),
		LowLatency:  summarize(measure(gq.LowLatency, true)),
		Uncontended: summarize(measure(gq.BestEffort, false)).Median,
	}
}

// LatencyTable renders the result.
func LatencyTable(r LatencyResult) trace.Table {
	t := trace.Table{
		Title:   "Low-latency class: 1 KB ping-pong RTT under saturating contention",
		Headers: []string{"class", "rounds", "mean", "median", "p99"},
	}
	add := func(name string, s LatencyStats) {
		t.Add(name, strconv.Itoa(s.Rounds), s.Mean.String(), s.Median.String(), s.P99.String())
	}
	add("best effort", r.BestEffort)
	add("low latency", r.LowLatency)
	t.Add("(quiet baseline)", "", "", r.Uncontended.String(), "")
	return t
}
