// Command garnet drives the reproduction experiments: it rebuilds the
// GARNET testbed in simulation and regenerates any table or figure
// from the paper's evaluation.
//
// Usage:
//
//	garnet -exp fig1|fig5|fig6|fig7|fig8|fig9|figF|figG|figH|figI|table1|isvsds|latency|ablations|all
//	       [-scale 1.0] [-seed 1] [-parallel N] [-svgdir dir]
//	       [-cpuprofile file] [-memprofile file]
//	garnet -topology
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"mpichgq/internal/experiments"
	"mpichgq/internal/garnet"
	"mpichgq/internal/spans"
	"mpichgq/internal/trace"
)

// svgDir, when set via -svgdir, receives one SVG figure per
// experiment in addition to the textual output.
var svgDir string

func main() {
	exp := flag.String("exp", "", "experiment id: fig1, fig5, fig6, fig7, fig8, fig9, figF, figG, figH, figI, table1, isvsds, latency, ablations, all")
	scale := flag.Float64("scale", 1.0, "time scale (1.0 = paper-length runs)")
	seed := flag.Int64("seed", 1, "simulation seed")
	topo := flag.Bool("topology", false, "print the testbed topology and exit")
	parallel := flag.Int("parallel", experiments.MaxParallel(),
		"worker count for sweep experiments (output is identical for any value)")
	fluid := flag.Bool("fluid", false,
		"run background contention in hybrid fluid/packet mode (order-of-magnitude faster; plateau within 2% of packet level)")
	traceOut := flag.String("trace", "",
		"write the experiment's causal spans as Chrome trace-event JSON to this file (fig5, figG, figH)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&svgDir, "svgdir", "", "directory to write SVG figures into (optional)")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if svgDir != "" {
		if err := os.MkdirAll(svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *topo {
		fmt.Print(garnet.New(*seed).Topology())
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, TimeScale: *scale, Parallel: *parallel, FluidBackground: *fluid}
	if *traceOut != "" {
		cfg.Trace = spans.NewCollector()
	}
	run := func(id string) {
		switch id {
		case "fig1":
			runFig1(cfg)
		case "fig5":
			r := experiments.RunFigure5(cfg)
			tbl := experiments.Figure5Table(r)
			fmt.Print(tbl.String())
			var series []trace.Series
			for _, size := range r.MessageSizes {
				series = append(series, xy(fmt.Sprintf("%dKb msgs", size.Bits()/1000), r.Curves[size],
					func(p experiments.PingPongPoint) float64 { return p.Reservation.Kbps() },
					func(p experiments.PingPongPoint) float64 { return p.Throughput.Kbps() }))
			}
			writeSVG("fig5", trace.Plot{
				Title:  "Figure 5: ping-pong throughput vs reservation",
				XLabel: "one-way reservation (Kb/s)", YLabel: "one-way throughput (Kb/s)",
				Series: series,
			})
		case "fig6":
			r := experiments.RunFigure6(cfg)
			tbl := experiments.Figure6Table(r)
			fmt.Print(tbl.String())
			var series []trace.Series
			for _, offered := range r.Offered {
				series = append(series, xy(fmt.Sprintf("attempting %.0fKb/s", offered.Kbps()), r.Curves[offered],
					func(p experiments.Figure6Point) float64 { return p.Reservation.Kbps() },
					func(p experiments.Figure6Point) float64 { return p.Achieved.Kbps() }))
			}
			writeSVG("fig6", trace.Plot{
				Title:  "Figure 6: visualization app vs reservation",
				XLabel: "reservation (Kb/s)", YLabel: "achieved (Kb/s)",
				Series: series,
			})
		case "fig7":
			runFig7(cfg)
		case "fig8":
			runFig8(cfg)
		case "fig9":
			runFig9(cfg)
		case "figF":
			runFigF(cfg)
		case "figG":
			runFigG(cfg)
		case "figH":
			runFigH(cfg)
		case "figI":
			runFigI(cfg)
		case "table1":
			fmt.Print(experiments.Table1Render(experiments.RunTable1(cfg)))
		case "isvsds":
			tbl := experiments.ISvsDSTable(experiments.RunISvsDS(cfg, 8))
			fmt.Print(tbl.String())
		case "latency":
			tbl := experiments.LatencyTable(experiments.RunLatency(cfg))
			fmt.Print(tbl.String())
		case "ablations":
			fmt.Print(experiments.AblationBucketDepth(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationShaping(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationEagerThreshold(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationSocketBuffers(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationOverheadFactor(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationEraTCP(cfg))
			fmt.Println()
			fmt.Print(experiments.AblationFluidValidation(cfg))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, id := range []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "figF", "figG", "figH", "figI", "table1", "isvsds", "latency", "ablations"} {
			fmt.Printf("=== %s ===\n", id)
			run(id)
			fmt.Println()
		}
	} else {
		run(*exp)
	}
	if cfg.Trace != nil {
		if err := writeTrace(*traceOut, cfg.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s: %d traced sweep points)\n", *traceOut, cfg.Trace.Len())
	}
}

// writeTrace dumps the collected spans as a Chrome trace-event file.
func writeTrace(path string, col *spans.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSVG stores a plot when -svgdir is set.
func writeSVG(name string, p trace.Plot) {
	if svgDir == "" {
		return
	}
	path := filepath.Join(svgDir, name+".svg")
	if err := os.WriteFile(path, []byte(p.SVG()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

// xy is the plot series called name with one point (x(p), y(p)) per
// element p of pts.
func xy[P any](name string, pts []P, x, y func(P) float64) trace.Series {
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, x(p))
		ys = append(ys, y(p))
	}
	return trace.XYSeries(name, xs, ys)
}

func runFig1(cfg experiments.Config) {
	r := experiments.RunFigure1(cfg)
	fmt.Printf("Figure 1: TCP flow offered %v with a %v reservation under contention\n",
		r.Offered, r.Reserved)
	fmt.Printf("mean %v, oscillating %v..%v\n", r.Mean, r.Min, r.Max)
	fmt.Print(r.Bandwidth.String())
	writeSVG("fig1", trace.Plot{
		Title:  "Figure 1: TCP flow with a too-small reservation",
		XLabel: "time (s)", YLabel: "bandwidth (Kb/s)",
		Series: []trace.Series{r.Bandwidth},
	})
}

func runFig7(cfg experiments.Config) {
	r := experiments.RunFigure7(cfg)
	fmt.Println("Figure 7: TCP sequence traces, both at 400 Kb/s (1 s window)")
	fmt.Printf("10 fps x 40 Kb frames: %d segments, max 100 ms burst %v\n",
		len(r.Smooth), r.SmoothBurst)
	for _, p := range r.Smooth {
		fmt.Printf("  %.3f\t%.1f Kb%s\n", p.T.Seconds(), float64(p.Seq)*8/1000, retxMark(p.Retx))
	}
	fmt.Printf("1 fps x 400 Kb frames: %d segments, max 100 ms burst %v\n",
		len(r.Bursty), r.BurstyBurst)
	for _, p := range r.Bursty {
		fmt.Printf("  %.3f\t%.1f Kb%s\n", p.T.Seconds(), float64(p.Seq)*8/1000, retxMark(p.Retx))
	}
	seqSeries := func(name string, pts []trace.SeqPoint) trace.Series {
		s := trace.Series{Name: name}
		for _, p := range pts {
			s.Points = append(s.Points, trace.Point{T: p.T, V: float64(p.Seq) * 8 / 1000})
		}
		return s
	}
	writeSVG("fig7", trace.Plot{
		Title:  "Figure 7: sequence traces, 400 Kb/s at two burstiness levels",
		XLabel: "time (s)", YLabel: "sequence number (Kb)",
		Scatter: true,
		Series: []trace.Series{
			seqSeries("10 fps x 40Kb", r.Smooth),
			seqSeries("1 fps x 400Kb", r.Bursty),
		},
	})
}

func retxMark(retx bool) string {
	if retx {
		return "  (retransmit)"
	}
	return ""
}

func runFigF(cfg experiments.Config) {
	r := experiments.RunFigureF(cfg)
	fmt.Printf("Figure F: %v premium flow through a WAN flap (down %.0fs..%.0fs) under %v contention\n",
		r.Target, r.Down.Seconds(), r.Up.Seconds(), experiments.ContentionRate)
	fmt.Print(experiments.FigureFTable(r).String())
	fmt.Printf("watchdog: %d repairs, %d fallbacks, %d upgrades\n", r.Repairs, r.Fallbacks, r.Upgrades)
	fmt.Print(r.Healed.Series.String())
	writeSVG("figF", trace.Plot{
		Title:  "Figure F: self-healing QoS through a WAN link flap",
		XLabel: "time (s)", YLabel: "goodput (Kb/s)",
		Series: []trace.Series{r.NoQoS.Series, r.Static.Series, r.Healed.Series},
	})
}

func runFigG(cfg experiments.Config) {
	r := experiments.RunFigureG(cfg)
	fmt.Println("Figure G: two-domain co-reservation over a lossy control plane (with one RM crash/restart)")
	fmt.Print(experiments.FigureGTable(r).String())
	loss := func(p experiments.FigureGPoint) float64 { return 100 * p.Loss }
	rate := func(p experiments.FigureGPoint) float64 { return 100 * p.SuccessRate }
	leak := func(p experiments.FigureGPoint) float64 { return p.LeakMB }
	writeSVG("figG-success", trace.Plot{
		Title:  "Figure G: co-reservation success vs control-channel loss",
		XLabel: "control-channel loss (%)", YLabel: "success rate (%)",
		Series: []trace.Series{xy("two-phase + leases", r.TwoPhase, loss, rate), xy("naive", r.Naive, loss, rate)},
	})
	writeSVG("figG-leak", trace.Plot{
		Title:  "Figure G: orphaned EF capacity vs control-channel loss",
		XLabel: "control-channel loss (%)", YLabel: "capacity leak (MB)",
		Series: []trace.Series{xy("two-phase + leases", r.TwoPhase, loss, leak), xy("naive", r.Naive, loss, leak)},
	})
}

func runFigH(cfg experiments.Config) {
	r := experiments.RunFigureH(cfg)
	fmt.Println("Figure H: job survival and time-to-recover vs rank MTBF (worker crash/restart, with and without checkpointing)")
	fmt.Print(experiments.FigureHTable(r).String())
	mtbf := func(p experiments.FigureHPoint) float64 { return p.MTBF.Seconds() }
	survival := func(p experiments.FigureHPoint) float64 { return 100 * p.SurvivalRate }
	ttr := func(p experiments.FigureHPoint) float64 { return p.MeanTTR.Seconds() }
	writeSVG("figH-survival", trace.Plot{
		Title:  "Figure H: job survival rate vs rank MTBF",
		XLabel: "rank MTBF (s)", YLabel: "survival rate (%)",
		Series: []trace.Series{xy("checkpointed", r.Ckpt, mtbf, survival), xy("no checkpoints", r.NoCkpt, mtbf, survival)},
	})
	writeSVG("figH-ttr", trace.Plot{
		Title:  "Figure H: mean time-to-recover vs rank MTBF",
		XLabel: "rank MTBF (s)", YLabel: "time to recover (s)",
		Series: []trace.Series{xy("checkpointed", r.Ckpt, mtbf, ttr), xy("no checkpoints", r.NoCkpt, mtbf, ttr)},
	})
}

func runFigI(cfg experiments.Config) {
	r := experiments.RunFigureI(cfg)
	fmt.Println("Figure I: admission-storm goodput and p99 latency vs offered load, overload controls on vs off")
	fmt.Print(experiments.FigureITable(r).String())
	mult := func(p experiments.FigureIPoint) float64 { return p.Mult }
	goodput := func(p experiments.FigureIPoint) float64 { return p.GoodputRPS }
	p99 := func(p experiments.FigureIPoint) float64 { return float64(p.P99.Milliseconds()) }
	writeSVG("figI-goodput", trace.Plot{
		Title:  "Figure I: admitted goodput vs offered load",
		XLabel: "offered load (x broker capacity)", YLabel: "admitted goodput (req/s)",
		Series: []trace.Series{xy("overload controls", r.Controls, mult, goodput), xy("no controls", r.NoCtrl, mult, goodput)},
	})
	writeSVG("figI-p99", trace.Plot{
		Title:  "Figure I: p99 admission latency vs offered load",
		XLabel: "offered load (x broker capacity)", YLabel: "p99 admission latency (ms)",
		Series: []trace.Series{xy("overload controls", r.Controls, mult, p99), xy("no controls", r.NoCtrl, mult, p99)},
	})
}

func runFig8(cfg experiments.Config) {
	r := experiments.RunFigure8(cfg)
	fmt.Println("Figure 8: CPU contention at 10 s, 90% DSRT reservation at 20 s")
	t := trace.Table{Headers: []string{"phase", "mean bandwidth"}}
	t.Add("quiet (0-10s)", r.QuietMean.String())
	t.Add("CPU contention (10-20s)", r.ContendedMean.String())
	t.Add("CPU reservation (20-30s)", r.ReservedMean.String())
	fmt.Print(t.String())
	fmt.Print(r.Bandwidth.String())
	writeSVG("fig8", trace.Plot{
		Title:  "Figure 8: CPU contention at 10s, DSRT reservation at 20s",
		XLabel: "time (s)", YLabel: "bandwidth (Kb/s)",
		Series: []trace.Series{r.Bandwidth},
	})
}

func runFig9(cfg experiments.Config) {
	r := experiments.RunFigure9(cfg)
	fmt.Println("Figure 9: 35 Mb/s stream; net congestion @10s, net reservation @20s, CPU contention @30s, CPU reservation @40s")
	t := trace.Table{Headers: []string{"phase", "mean bandwidth"}}
	t.Add("clean (0-10s)", r.Clean.String())
	t.Add("network congestion (10-20s)", r.NetCongested.String())
	t.Add("network reservation (20-30s)", r.NetReserved.String())
	t.Add("+CPU contention (30-40s)", r.CPUContended.String())
	t.Add("+CPU reservation (40-50s)", r.CPUReserved.String())
	fmt.Print(t.String())
	fmt.Print(r.Bandwidth.String())
	writeSVG("fig9", trace.Plot{
		Title:  "Figure 9: network and CPU reservations combined",
		XLabel: "time (s)", YLabel: "bandwidth (Kb/s)",
		Series: []trace.Series{r.Bandwidth},
	})
}
