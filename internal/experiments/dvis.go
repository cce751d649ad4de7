package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/globusio"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// DVis is the paper's distance-visualization pipeline (§5.3): an MPI
// program that "communicates a stream of fixed-sized messages from a
// sender to a receiver at a fixed rate; both the rate ('frames per
// second') and the message size ('frame size') can be adjusted, hence
// varying both the generated bandwidth and the burstiness of the
// traffic."
type DVis struct {
	// FrameSize and FPS define the stream; offered bandwidth is
	// FrameSize × FPS.
	FrameSize units.ByteSize
	FPS       int
	// Duration of the run.
	Duration time.Duration
	// WorkPerKB is application "work" (rendering) per KB of frame,
	// charged to the sender's CPU between frames. The paper added
	// this after noticing their first version ("sent a chunk of
	// data, slept, repeated") was an inaccurate simulation (§5.5).
	WorkPerKB time.Duration
	// CopyCostPerKB is the per-KB socket copy cost (globus-io).
	CopyCostPerKB time.Duration
	// SockBuf overrides MPI socket buffers (0 = default 64 KB).
	SockBuf units.ByteSize
	// TCPOpts overrides the transport options (nil = defaults). The
	// era-TCP ablation uses this to set 500 ms timer granularity and
	// delayed ACKs.
	TCPOpts *tcpsim.Options
	// Attr, if non-nil, is put on the pair communicator before
	// streaming (by both ranks).
	Attr *gq.QosAttribute
	// AgentMutate tweaks the agent before the run (bucket policy
	// etc.).
	AgentMutate func(*gq.Agent)
	// TraceBucket sizes the bandwidth trace buckets. Default 1 s.
	TraceBucket time.Duration
	// Shaper enables end-system traffic shaping on the MPI
	// connections.
	Shaper bool
	// JobHook runs after the MPI job is created but before it starts
	// (e.g. to attach a CPU hog to the sender's host).
	JobHook func(job *mpi.Job)
	// SenderEvents runs alongside the sender (reservations mid-run
	// etc.); it receives the agent, the sender rank, and the pair
	// communicator once streaming begins.
	SenderEvents func(ctx *sim.Ctx, agent *gq.Agent, sender *mpi.Rank, pc *mpi.Comm)
}

// DVisResult summarizes one run.
type DVisResult struct {
	Offered   units.BitRate
	Achieved  units.BitRate // mean over the full run
	Bandwidth trace.Series  // receiver-side bandwidth trace
	SeqTrace  *trace.SeqTrace
	Frames    int
	// SenderStats is the sender-side TCP connection state at the end
	// of the run (diagnostics).
	SenderStats tcpsim.ConnStats
}

// OfferedRate returns the configured stream rate.
func (d *DVis) OfferedRate() units.BitRate {
	return units.RateOf(d.FrameSize*units.ByteSize(d.FPS), time.Second)
}

// Run executes the pipeline on a fresh testbed and returns the
// result. The testbed is returned for callers that want to inspect
// router state.
func (d *DVis) Run(tb *garnet.Testbed) DVisResult {
	if d.TraceBucket == 0 {
		d.TraceBucket = time.Second
	}
	// The eager threshold is 1 MB: MPICH's TCP devices of the era
	// pushed even large messages eagerly; rendezvous stalls at frame
	// tails interact badly with policers (see AblationEagerThreshold).
	jobOpts := mpi.JobOptions{
		CopyCostPerKB:  d.CopyCostPerKB,
		SockBuf:        d.SockBuf,
		EagerThreshold: units.MB,
	}
	if d.Shaper {
		reserved := d.OfferedRate()
		if d.Attr != nil && d.Attr.Bandwidth > 0 {
			reserved = d.Attr.Bandwidth
		}
		jobOpts.Shaper = shaperFor(reserved)
	}
	tcpOpts := tcpsim.DefaultOptions()
	if d.TCPOpts != nil {
		tcpOpts = *d.TCPOpts
	}
	job := tb.NewMPIPair(tcpOpts, jobOpts)
	if d.JobHook != nil {
		d.JobHook(job)
	}
	agent := gq.NewAgent(tb.Gara, job)
	if d.AgentMutate != nil {
		d.AgentMutate(agent)
	}
	bw := trace.NewBandwidthTrace(d.TraceBucket)
	frames := 0
	interval := time.Second / time.Duration(d.FPS)
	// The TCP sequence trace is reconstructed from the flight
	// recorder's tcp-segment events after the run. Size the ring for a
	// multi-second run with background blast traffic, and note where
	// this run's events begin.
	rec := tb.K.Metrics().Events()
	rec.SetCapacity(1 << 16)
	var evStart uint64
	var senderNode string
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		if d.Attr != nil {
			a := *d.Attr
			if err := r.AttrPut(pc, agent.Keyval(), &a); err != nil {
				// Reservation failures leave the run best-effort;
				// the result will show it.
				_ = err
			}
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			// Sender: the sequence trace starts here — setup traffic
			// (connection establishment, PairComm handshake) stays out
			// of the figure.
			evStart = rec.Seq()
			senderNode = r.Host().Node.Name()
			if d.SenderEvents != nil {
				ctx.SpawnChild("dvis-events", func(ectx *sim.Ctx) {
					d.SenderEvents(ectx, agent, r, pc)
				})
			}
			frameKB := float64(d.FrameSize) / 1000
			for ctx.Now() < d.Duration {
				next := ctx.Now() + interval
				if d.WorkPerKB > 0 {
					r.Compute(ctx, time.Duration(float64(d.WorkPerKB)*frameKB))
				}
				if err := r.Send(ctx, pc, peer, 0, d.FrameSize, nil); err != nil {
					return
				}
				frames++
				if wait := next - ctx.Now(); wait > 0 {
					ctx.Sleep(wait)
				}
			}
			return
		}
		// Receiver.
		for {
			m, err := r.Recv(ctx, pc, peer, 0)
			if err != nil {
				return
			}
			bw.Add(ctx.Now(), m.Len)
		}
	})
	if err := tb.K.RunUntil(d.Duration + time.Second); err != nil {
		panic(fmt.Sprintf("experiments: dvis run: %v", err))
	}
	seq := &trace.SeqTrace{}
	for _, e := range rec.Since(evStart) {
		if e.Type == metrics.EvTCPSegment && e.Subject == senderNode {
			seq.Record(e.At, e.V1, units.ByteSize(e.V2), e.V3 != 0)
		}
	}
	res := DVisResult{
		Offered:   d.OfferedRate(),
		Achieved:  units.RateOf(bw.Total(), d.Duration),
		Bandwidth: bw.Series(fmt.Sprintf("dvis-%v@%dfps", d.FrameSize, d.FPS)),
		SeqTrace:  seq,
		Frames:    frames,
	}
	if conn := job.Rank(0).Conn(1); conn != nil {
		res.SenderStats = conn.Conn().Stats()
	}
	return res
}

// shaperFor builds an end-system shaping profile matching a
// reservation: pace at the reserved rate with a 20 ms burst
// allowance, comfortably within the router's bandwidth/40 (25 ms)
// bucket.
func shaperFor(rate units.BitRate) *globusio.ShaperConfig {
	return &globusio.ShaperConfig{Rate: rate, Depth: rate.BytesIn(20 * time.Millisecond)}
}
