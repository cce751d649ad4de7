// Command dvis runs the §5.3 distance-visualization pipeline
// standalone, with every knob the paper varies exposed as a flag.
//
//	dvis -frame 30 -fps 10 -reserve 2500 -bucket 40
//
// streams 30 KB frames at 10 fps with a 2500 Kb/s reservation and the
// normal (bandwidth/40) token bucket, printing the achieved bandwidth
// and the per-second trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/experiments"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

func main() {
	frameKB := flag.Int("frame", 30, "frame size in KB")
	fps := flag.Int("fps", 10, "frames per second")
	reserveKb := flag.Int("reserve", 0, "reservation in Kb/s (0 = best effort)")
	bucket := flag.Int("bucket", 40, "token bucket divisor (40 = normal, 4 = large)")
	dynamic := flag.Bool("dynamic", false, "size the bucket dynamically from the frame size (§5.4 extension)")
	shape := flag.Bool("shape", false, "enable end-system traffic shaping (§5.4 extension)")
	contend := flag.Bool("contend", true, "run the UDP contention generator")
	dur := flag.Duration("dur", 30*time.Second, "run duration (virtual time)")
	seed := flag.Int64("seed", 1, "simulation seed")
	snapshot := flag.String("snapshot", "", "write a JSON metrics snapshot of the run to this file")
	from := flag.String("from", "", "replay a JSON metrics snapshot instead of simulating")
	flag.Parse()

	if *from != "" {
		f, err := os.Open(*from)
		if err != nil {
			panic(err)
		}
		snap, err := metrics.LoadSnapshot(f)
		f.Close()
		if err != nil {
			panic(fmt.Sprintf("dvis: load snapshot %s: %v", *from, err))
		}
		replay(snap)
		return
	}

	tb := garnet.New(*seed)
	if *contend {
		bl := &trafficgen.UDPBlaster{Rate: 160 * units.Mbps, Jitter: 0.1}
		if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
			panic(err)
		}
	}
	d := &experiments.DVis{
		FrameSize: units.ByteSize(*frameKB) * units.KB,
		FPS:       *fps,
		Duration:  *dur,
		Shaper:    *shape,
	}
	if *reserveKb > 0 {
		d.Attr = &gq.QosAttribute{
			Class:     gq.Premium,
			Bandwidth: units.BitRate(*reserveKb) * units.Kbps,
		}
		d.AgentMutate = func(a *gq.Agent) {
			a.OverheadFactor = 1.0 // -reserve is the raw network value
			a.BucketDivisor = *bucket
			a.DynamicBucket = *dynamic
			if *dynamic {
				d.Attr.MaxMessageSize = d.FrameSize
			}
		}
	}
	r := d.Run(tb)
	fmt.Printf("offered %v (%d KB x %d fps), achieved %v over %v\n",
		r.Offered, *frameKB, *fps, r.Achieved, *dur)
	fmt.Printf("frames sent: %d; sender TCP: %d segments, %d retransmits, %d timeouts\n",
		r.Frames, r.SenderStats.SegmentsSent, r.SenderStats.Retransmits, r.SenderStats.Timeouts)
	fmt.Print(r.Bandwidth.String())
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			panic(err)
		}
		if err := tb.K.Metrics().WriteJSON(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *snapshot)
	}
}

// replay renders a run summary from a saved metrics snapshot: the
// receiver-side bandwidth trace is rebuilt from mpi-recv flight
// events and the TCP totals come from the exported counters.
func replay(snap *metrics.Snapshot) {
	bw := trace.NewBandwidthTrace(time.Second)
	delivered := 0
	for _, e := range snap.EventsOfType(metrics.EvMPIRecv) {
		bw.Add(e.At, units.ByteSize(e.V1))
		delivered++
	}
	first, last := snap.Span()
	fmt.Printf("replaying snapshot taken at t=%v (events span [%v, %v], %d overwritten)\n",
		time.Duration(snap.TakenAtNs), first, last, snap.EventsOverwritten)
	var segs, retx, tmo float64
	for _, m := range snap.Metrics {
		switch m.Name {
		case "tcp_segments_sent_total":
			segs += m.Value
		case "tcp_retransmits_total":
			retx += m.Value
		case "tcp_timeouts_total":
			tmo += m.Value
		}
	}
	fmt.Printf("messages delivered: %d (%v)\n", delivered, bw.Total())
	fmt.Printf("TCP (all nodes): %.0f segments, %.0f retransmits, %.0f timeouts\n", segs, retx, tmo)
	fmt.Print(bw.Series("snapshot mpi-recv bandwidth").String())
}
