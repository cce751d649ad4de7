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

// Figure8Result holds the CPU-contention timeline of Figure 8.
type Figure8Result struct {
	Bandwidth trace.Series
	// Phase means: quiet (0-10 s), CPU contention (10-20 s), CPU
	// reservation (20-30 s).
	QuietMean, ContendedMean, ReservedMean units.BitRate
}

// RunFigure8 reproduces Figure 8: the visualization application
// maintains "a fairly steady throughput of 15Mb/s. However at 10
// seconds, a CPU-intensive application begins running on the same
// machine as the sending side. This reduces the bandwidth
// significantly, so a CPU reservation for 90% of the CPU is made at
// 20 seconds, and the visualization application again is able to
// achieve its full bandwidth."
//
// The sender does real "work" per frame plus per-byte socket copies
// (§5.5's lesson), calibrated so 15 Mb/s needs ~84% of the CPU:
// contention halves its share and throughput collapses; the 90% DSRT
// reservation restores it.
func RunFigure8(cfg Config) Figure8Result {
	cfg = cfg.withDefaults()
	dur := cfg.scale(30 * time.Second)
	hogStart := cfg.scale(10 * time.Second)
	resAt := cfg.scale(20 * time.Second)

	tb := garnet.New(cfg.Seed)
	defer tb.Close()
	d := &DVis{
		// 15 Mb/s: 187.5 KB frames at 10 fps.
		FrameSize:     187500,
		FPS:           10,
		Duration:      dur,
		WorkPerKB:     350 * time.Microsecond,
		CopyCostPerKB: 100 * time.Microsecond,
		TraceBucket:   cfg.scale(time.Second),
		JobHook: func(job *mpi.Job) {
			hog := &trafficgen.CPUHog{Start: hogStart}
			hog.Run(tb.K, job.Rank(0).Host().CPU)
		},
		SenderEvents: func(ctx *sim.Ctx, agent *gq.Agent, sender *mpi.Rank, _ *mpi.Comm) {
			ctx.Sleep(resAt - ctx.Now())
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
	return Figure8Result{
		Bandwidth:     bw,
		QuietMean:     phase(cfg.scale(2*time.Second), hogStart),
		ContendedMean: phase(hogStart+cfg.scale(time.Second), resAt),
		ReservedMean:  phase(resAt+cfg.scale(time.Second), dur),
	}
}
