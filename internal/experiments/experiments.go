// Package experiments reproduces every table and figure of the
// paper's evaluation (§5). Each RunFigureN/RunTableN function builds a
// fresh GARNET testbed, runs the workload, and returns the series or
// rows the paper plots. cmd/garnet prints them; bench_test.go wraps
// them as benchmarks; the package tests assert the qualitative shape
// the paper reports.
package experiments

import (
	"time"

	"mpichgq/internal/garnet"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Config scales experiment durations so tests can run abbreviated
// versions while cmd/garnet runs the paper-length ones.
type Config struct {
	// Seed for the deterministic kernel.
	Seed int64
	// TimeScale multiplies every experiment duration (1.0 = the
	// paper's timelines; tests use less).
	TimeScale float64
	// Parallel caps the worker count for sweep-style experiments
	// (fig5, fig6, fig7, figF, figG). <= 0 means one worker per CPU. The
	// worker count never changes experiment output, only wall-clock
	// time: every sweep point runs on its own kernel.
	Parallel int
	// Trace, when non-nil, enables causal tracing on every sweep
	// point's kernel and collects the completed spans keyed by point
	// index, so the merged Chrome trace is byte-identical at any
	// Parallel. cmd/garnet's -trace flag plumbs this.
	Trace *spans.Collector
	// FluidBackground runs the background contention generator in
	// hybrid fluid/packet mode: the blaster becomes a fluid rate
	// installed at queues instead of per-packet events, cutting kernel
	// event volume by an order of magnitude. Foreground MPI/TCP
	// traffic stays packet-level. Results shift slightly (see the
	// AblationFluidValidation error bound: plateau throughput within
	// 2% of packet mode); output stays byte-identical at any Parallel
	// within each mode.
	FluidBackground bool
}

// traceCapacity is the completed-span ring size used for traced
// experiment kernels — generous enough that a paper-length point
// retains its whole story.
const traceCapacity = 1 << 15

// enableTrace turns on k's tracer when the config collects traces.
func (c Config) enableTrace(k *sim.Kernel) {
	if c.Trace != nil {
		k.Tracer().SetCapacity(traceCapacity)
		k.Tracer().SetEnabled(true)
	}
}

// collectTrace reports a finished point's spans under its sweep index.
func (c Config) collectTrace(k *sim.Kernel, pid int, label string) {
	if c.Trace != nil {
		c.Trace.Add(pid, label, k.Tracer().Snapshot())
	}
}

// QuickConfig runs abbreviated experiments for tests.
func QuickConfig() Config { return Config{Seed: 1, TimeScale: 0.2} }

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	return c
}

// scale applies the config's time scale to a paper duration.
func (c Config) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.TimeScale)
}

// ContentionRate is the UDP generator's offered load: enough to
// saturate the 155 Mb/s bottleneck, "quite capable of overwhelming any
// TCP application that does not have a reservation".
const ContentionRate = 160 * units.Mbps

// blast starts the standard contention generator on the competitive
// host pair, packet-level or fluid per the config.
func (c Config) blast(tb *garnet.Testbed, from, to time.Duration) trafficgen.Background {
	b := trafficgen.NewBackground(trafficgen.BackgroundOptions{
		Rate:       ContentionRate,
		PacketSize: 1000,
		Jitter:     0.1,
		Start:      from,
		Stop:       to,
		Fluid:      c.FluidBackground,
	})
	if err := b.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		panic(err)
	}
	return b
}
