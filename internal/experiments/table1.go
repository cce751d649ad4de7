package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/garnet"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// Table1Row is one line of Table 1: the reservation required to
// achieve a desired bandwidth under three configurations.
type Table1Row struct {
	Desired units.BitRate
	// Required reservation with the normal (bandwidth/40) bucket at
	// 10 fps and 1 fps, and with the large (bandwidth/4) bucket at
	// 1 fps.
	Normal10fps units.BitRate
	Normal1fps  units.BitRate
	Large1fps   units.BitRate
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Rates are the paper's desired bandwidths.
var Table1Rates = []units.BitRate{
	400 * units.Kbps, 800 * units.Kbps, 1600 * units.Kbps, 2400 * units.Kbps,
}

// RunTable1 reproduces Table 1 (§5.4): "the reservation required to
// achieve a specified throughput, for varying degrees of 'burstiness'
// (expressed in frames per second) and token bucket sizes". With the
// normal bucket depth, "the very bursty configuration needs an
// approximately 50% larger reservation"; the large bucket restores
// the 10 fps requirement.
func RunTable1(cfg Config) Table1Result {
	cfg = cfg.withDefaults()
	var out Table1Result
	for _, desired := range Table1Rates {
		row := Table1Row{Desired: desired}
		row.Normal10fps = requiredReservation(cfg, desired, 10, diffserv.NormalBucketDivisor)
		row.Normal1fps = requiredReservation(cfg, desired, 1, diffserv.NormalBucketDivisor)
		row.Large1fps = requiredReservation(cfg, desired, 1, diffserv.LargeBucketDivisor)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// requiredReservation binary-searches the smallest reservation that
// lets the dvis stream achieve ≥95% of the desired rate. The
// transport is era-accurate (500 ms timer granularity, delayed ACKs):
// Table 1's burstiness penalty is largely a property of that era's
// loss recovery — a modern stack's fast retransmit refills the bucket
// losses within the 1 fps inter-frame gap and the penalty vanishes
// (see AblationEraTCP for the side-by-side).
func requiredReservation(cfg Config, desired units.BitRate, fps int, bucketDivisor int) units.BitRate {
	dur := cfg.scale(30 * time.Second)
	frame := desired.BytesIn(time.Second) / units.ByteSize(fps)
	era := EraTCPOptions()
	achieves := func(rsv units.BitRate) bool {
		tb := garnet.New(cfg.Seed)
		defer tb.Close()
		cfg.blast(tb, 0, 0)
		d := &DVis{
			FrameSize: frame,
			FPS:       fps,
			Duration:  dur,
			TCPOpts:   &era,
			Attr:      &gq.QosAttribute{Class: gq.Premium, Bandwidth: rsv},
			AgentMutate: func(a *gq.Agent) {
				a.OverheadFactor = 1.0
				a.BucketDivisor = bucketDivisor
			},
		}
		got := d.Run(tb).Achieved
		return float64(got) >= 0.95*float64(desired)
	}
	// Bracket: start at the desired rate, double until adequate.
	lo := desired / 2
	hi := desired
	for !achieves(hi) {
		lo = hi
		hi = hi * 2
		if hi > 64*desired {
			return hi // pathological; report the huge bound
		}
	}
	// Binary search to 25 Kb/s granularity (the paper reports
	// 50-100 Kb/s steps).
	step := 25 * units.Kbps
	for hi-lo > step {
		mid := (lo + hi) / 2
		if achieves(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Table1Render formats the result like the paper's Table 1.
func Table1Render(r Table1Result) trace.Table {
	t := trace.Table{
		Title: "Table 1: reservation (Kb/s) required to achieve a desired throughput",
		Headers: []string{
			"desired", "normal bucket 10fps", "normal bucket 1fps", "large bucket 1fps",
		},
	}
	for _, row := range r.Rows {
		t.Add(
			fmt.Sprintf("%.0f", row.Desired.Kbps()),
			fmt.Sprintf("%.0f", row.Normal10fps.Kbps()),
			fmt.Sprintf("%.0f", row.Normal1fps.Kbps()),
			fmt.Sprintf("%.0f", row.Large1fps.Kbps()),
		)
	}
	return t
}
