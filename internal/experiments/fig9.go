package experiments

import (
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/trace"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Figure9Result holds the five-phase timeline of Figure 9.
type Figure9Result struct {
	Bandwidth trace.Series
	// Per-phase mean bandwidth: clean (0-10 s), network congestion
	// (10-20 s), network reservation (20-30 s), CPU contention added
	// (30-40 s), CPU reservation added (40-50 s).
	Clean, NetCongested, NetReserved, CPUContended, CPUReserved units.BitRate
}

// RunFigure9 reproduces Figure 9: the visualization application
// attempts a constant 35 Mb/s. "Initially it runs well (0-10
// seconds), then network congestion affects its bandwidth (11-20
// seconds) until a network reservation is made (21-30 seconds).
// Bandwidth again decreases when there is CPU contention at the
// sender (31-40 seconds) until there is a CPU reservation (41-50
// seconds). ... it is insufficient to make just a network reservation
// or a CPU reservation: both reservations are needed."
func RunFigure9(cfg Config) Figure9Result {
	cfg = cfg.withDefaults()
	dur := cfg.scale(50 * time.Second)
	t10 := cfg.scale(10 * time.Second)
	t20 := cfg.scale(20 * time.Second)
	t30 := cfg.scale(30 * time.Second)
	t40 := cfg.scale(40 * time.Second)

	tb := garnet.New(cfg.Seed)
	defer tb.Close()
	// Network congestion begins at 10 s and continues to the end. It
	// is heavy but not a total blackout (as in the paper's Figure 9,
	// where the congested flow limps along at a few Mb/s): a fully
	// starved TCP backs its RTO off so far that recovery after the
	// reservation would be delayed by the timer, not the network.
	// Always packet-level: the timeline's middle phases measure an
	// unreserved flow limping through the congestion, which fluid
	// contention would starve outright (see docs/performance.md).
	bl := trafficgen.NewBackground(trafficgen.BackgroundOptions{
		Rate:       150 * units.Mbps,
		PacketSize: 1000,
		Jitter:     0.1,
		Start:      t10,
	})
	if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		panic(err)
	}

	d := &DVis{
		// 35 Mb/s: 437.5 KB frames at 10 fps.
		FrameSize:     437500,
		FPS:           10,
		Duration:      dur,
		WorkPerKB:     130 * time.Microsecond,
		CopyCostPerKB: 50 * time.Microsecond,
		// Large socket buffers (the §5.5 tuning): the whole frame
		// buffers at once so per-frame compute overlaps the network
		// drain; without this the app serializes work and transfer
		// and cannot reach 35 Mb/s at all.
		SockBuf:     512 * units.KB,
		TraceBucket: cfg.scale(time.Second),
		JobHook: func(job *mpi.Job) {
			// CPU contention begins at 30 s and continues to the end.
			hog := &trafficgen.CPUHog{Start: t30}
			hog.Run(tb.K, job.Rank(0).Host().CPU)
		},
		SenderEvents: func(ctx *sim.Ctx, agent *gq.Agent, sender *mpi.Rank, pc *mpi.Comm) {
			// Network reservation at 20 s: put the premium attribute
			// (the agent applies its 1.06 overhead rule).
			ctx.Sleep(t20 - ctx.Now())
			// No MaxMessageSize: the agent's measured 1.06 overhead
			// rule applies (the exact per-segment computation is too
			// tight — it leaves no slack for congestion-control
			// sawtooth, which is precisely why the paper measured
			// 1.06 rather than the theoretical ~1.03).
			attr := &gq.QosAttribute{
				Class:     gq.Premium,
				Bandwidth: 35 * units.Mbps,
			}
			if err := sender.AttrPut(pc, agent.Keyval(), attr); err != nil {
				panic(err)
			}
			// CPU reservation at 40 s.
			ctx.Sleep(t40 - ctx.Now())
			if _, err := agent.ReserveCPU(sender, 0.9); err != nil {
				panic(err)
			}
		},
	}
	r := d.Run(tb)
	bw := r.Bandwidth
	phase := func(from, to time.Duration) units.BitRate {
		return units.BitRate(bw.Between(from, to).Mean()) * units.Kbps
	}
	margin := cfg.scale(time.Second)
	return Figure9Result{
		Bandwidth:    bw,
		Clean:        phase(cfg.scale(2*time.Second), t10),
		NetCongested: phase(t10+margin, t20),
		NetReserved:  phase(t20+margin, t30),
		CPUContended: phase(t30+margin, t40),
		CPUReserved:  phase(t40+margin, dur),
	}
}
