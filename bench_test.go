// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus one per ablation called out in DESIGN.md.
//
// Each benchmark iteration runs the complete experiment in virtual
// time (abbreviated via TimeScale so -benchtime=1x stays tractable)
// and reports domain-specific metrics alongside ns/op:
//
//	go test -bench=. -benchmem
//
// Regenerate the paper-length numbers with cmd/garnet -exp <id>.
package main

import (
	"testing"
	"time"

	"mpichgq/internal/experiments"
	"mpichgq/internal/units"
)

// benchCfg runs experiments at 1/5 of paper length: long enough for
// steady state, short enough for a benchmark suite.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, TimeScale: 0.2}
}

// BenchmarkFigure1 regenerates Figure 1: a TCP flow offered 50 Mb/s
// against a 40 Mb/s reservation, oscillating under contention.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure1(benchCfg())
		b.ReportMetric(r.Mean.Mbps(), "meanMb/s")
		b.ReportMetric(r.Max.Mbps()-r.Min.Mbps(), "swingMb/s")
	}
}

// BenchmarkFigure5 regenerates Figure 5: ping-pong throughput vs
// reservation for four message sizes under contention. The reported
// metric is the largest message's plateau throughput. Background
// contention runs in hybrid fluid mode, the figure pipeline's default;
// BenchmarkFigure5Packet keeps the packet-level reference trajectory
// alongside it.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.FluidBackground = true
		r := experiments.RunFigure5(cfg)
		big := experiments.Figure5MessageSizes[3]
		curve := r.Curves[big]
		b.ReportMetric(curve[len(curve)-1].Throughput.Mbps(), "plateauMb/s")
	}
}

// BenchmarkFigure5Packet is BenchmarkFigure5 with packet-level
// background: the golden the fluid plateau is validated against (see
// AblationFluidValidation) and the record of what the hybrid mode
// buys.
func BenchmarkFigure5Packet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure5(benchCfg())
		big := experiments.Figure5MessageSizes[3]
		curve := r.Curves[big]
		b.ReportMetric(curve[len(curve)-1].Throughput.Mbps(), "plateauMb/s")
	}
}

// BenchmarkFigure6 regenerates Figure 6: the visualization app's
// achieved bandwidth vs reservation; the metric is the achieved
// fraction at the 1.06x point for the 2400 Kb/s stream.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure6(benchCfg())
		offered := r.Offered[len(r.Offered)-1]
		for _, p := range r.Curves[offered] {
			if p.Reservation == units.BitRate(1.06*float64(offered)) {
				b.ReportMetric(float64(p.Achieved)/float64(offered), "achieved/offered@1.06x")
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: required reservation vs
// burstiness and bucket size; the metric is the bursty-to-smooth
// requirement ratio at 400 Kb/s (the paper reports ~1.5).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(benchCfg())
		row := r.Rows[0]
		b.ReportMetric(float64(row.Normal1fps)/float64(row.Normal10fps), "bursty/smooth")
		b.ReportMetric(float64(row.Large1fps)/float64(row.Normal10fps), "largeBucket/smooth")
	}
}

// BenchmarkFigure7 regenerates Figure 7's sequence traces; the metric
// is the bursty program's max 100 ms burst over the smooth one's.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure7(experiments.Config{Seed: 1, TimeScale: 1})
		b.ReportMetric(float64(r.BurstyBurst)/float64(r.SmoothBurst), "burstRatio")
	}
}

// BenchmarkFigure8 regenerates Figure 8: CPU contention and DSRT
// recovery; the metrics are the contended dip and reserved recovery
// as fractions of the quiet rate.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure8(experiments.Config{Seed: 1, TimeScale: 0.5})
		b.ReportMetric(float64(r.ContendedMean)/float64(r.QuietMean), "contendedFrac")
		b.ReportMetric(float64(r.ReservedMean)/float64(r.QuietMean), "reservedFrac")
	}
}

// BenchmarkFigure9 regenerates Figure 9's five-phase timeline; the
// metric is the final phase's recovery fraction (both reservations
// in force).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure9(experiments.Config{Seed: 1, TimeScale: 0.5})
		b.ReportMetric(float64(r.CPUReserved)/float64(r.Clean), "recoveredFrac")
		b.ReportMetric(float64(r.NetCongested)/float64(r.Clean), "congestedFrac")
	}
}

// BenchmarkAblationBucketDepth sweeps token-bucket depth rules for
// the bursty stream.
func BenchmarkAblationBucketDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationBucketDepth(benchCfg())
	}
}

// BenchmarkAblationShaping compares router-only policing with
// end-system shaping.
func BenchmarkAblationShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationShaping(benchCfg())
	}
}

// BenchmarkAblationEagerThreshold sweeps the MPI eager/rendezvous
// threshold.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationEagerThreshold(benchCfg())
	}
}

// BenchmarkAblationSocketBuffers crosses socket buffer sizes with CPU
// contention (§5.5).
func BenchmarkAblationSocketBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationSocketBuffers(benchCfg())
	}
}

// BenchmarkAblationOverhead locates the reservation/offered knee
// around the paper's 1.06.
func BenchmarkAblationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationOverheadFactor(benchCfg())
	}
}

// BenchmarkAblationEraTCP compares modern and 2000-era transports on
// the bursty stream (Table 1's penalty magnitude).
func BenchmarkAblationEraTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationEraTCP(benchCfg())
	}
}

// BenchmarkISvsDS runs the §2 architectural comparison: per-router
// state under IntServ vs DiffServ, with protection verified both ways.
func BenchmarkISvsDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunISvsDS(benchCfg(), 8)
		b.ReportMetric(float64(r.ISCoreState), "isCoreState")
		b.ReportMetric(float64(r.DSCoreRules), "dsCoreState")
	}
}

// BenchmarkSimulatorPacketRate measures raw simulator performance:
// virtual seconds of saturated-bottleneck simulation per wall second.
func BenchmarkSimulatorPacketRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r := experiments.RunFigure1(experiments.Config{Seed: int64(i + 1), TimeScale: 0.1})
		wall := time.Since(start).Seconds()
		_ = r
		b.ReportMetric(10/wall, "simSec/wallSec")
	}
}

// BenchmarkLatencyClass measures the low-latency class's RTT benefit
// under contention (median ratio best-effort / low-latency).
func BenchmarkLatencyClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunLatency(benchCfg())
		b.ReportMetric(float64(r.BestEffort.Median)/float64(r.LowLatency.Median), "medianRatio")
		b.ReportMetric(float64(r.LowLatency.Median)/float64(time.Millisecond), "llMedianMs")
	}
}

// BenchmarkAdmissionStorm regenerates Figure I's harshest cell pair: a
// reservation storm at ten times broker capacity, with and without
// overload controls, reporting admitted goodput for both.
func BenchmarkAdmissionStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigureI(experiments.Config{Seed: 1, TimeScale: 0.25, Parallel: 8})
		last := len(r.Mults) - 1
		b.ReportMetric(r.Controls[last].GoodputRPS, "ctlGoodput/s")
		b.ReportMetric(r.NoCtrl[last].GoodputRPS, "rawGoodput/s")
		b.ReportMetric(float64(r.Controls[last].Sheds), "sheds")
	}
}
