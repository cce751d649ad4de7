package experiments

import (
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// Figure7Result holds the two TCP sequence-number traces of Figure 7:
// both programs send 400 Kb/s, one as 10 frames/s of 40 Kb and one as
// 1 frame/s of 400 Kb.
type Figure7Result struct {
	// Smooth is the 10 fps trace; Bursty the 1 fps trace. One second
	// of steady-state execution each, as in the figure.
	Smooth, Bursty []trace.SeqPoint
	// SmoothBurst and BurstyBurst are the largest 100 ms bursts, a
	// scalar burstiness measure.
	SmoothBurst, BurstyBurst units.ByteSize
}

// RunFigure7 reproduces Figure 7: "TCP traces of two programs that
// each send at 400Kb/s, but with very different burstiness
// characteristics ... the program running at ten frames per second
// has much smaller bursts that are well spread out, while the program
// running at one frame per second sends all of its data in one much
// larger burst."
func RunFigure7(cfg Config) Figure7Result {
	cfg = cfg.withDefaults()
	// Generous reservations so no packets drop and the traces show
	// pure application burstiness (the figure corresponds to Table
	// 1's first line, after adequate reservations).
	run := func(frame units.ByteSize, fps int) *trace.SeqTrace {
		tb := garnet.New(cfg.Seed)
		defer tb.Close()
		cfg.blast(tb, 0, 0)
		d := &DVis{
			FrameSize: frame,
			FPS:       fps,
			Duration:  4 * time.Second,
			Attr:      &gq.QosAttribute{Class: gq.Premium, Bandwidth: 800 * units.Kbps},
			AgentMutate: func(a *gq.Agent) {
				a.OverheadFactor = 1.0
				a.DynamicBucket = true
			},
		}
		d.Attr.MaxMessageSize = frame
		return d.Run(tb).SeqTrace
	}
	traces := Sweep(cfg.Parallel, 2, func(i int) *trace.SeqTrace {
		if i == 0 {
			return run(5*units.KB, 10) // 40 Kb frames, 10 fps
		}
		return run(50*units.KB, 1) // 400 Kb frame, 1 fps
	})
	smooth, bursty := traces[0], traces[1]
	// Show one second of steady state (skip the first two: slow
	// start and agent setup).
	window := func(t *trace.SeqTrace) []trace.SeqPoint {
		return t.Between(2*time.Second, 3*time.Second)
	}
	return Figure7Result{
		Smooth:      window(smooth),
		Bursty:      window(bursty),
		SmoothBurst: smooth.BurstStats(100 * time.Millisecond),
		BurstyBurst: bursty.BurstStats(100 * time.Millisecond),
	}
}
