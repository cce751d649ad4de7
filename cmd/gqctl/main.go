// Command gqctl demonstrates GARA administration against a live
// scenario: it builds the testbed, issues immediate and advance
// reservations across the three resource types, and dumps the
// resulting slot-table and router state at several points in virtual
// time — the view an external QoS agent or bandwidth-broker operator
// would have.
//
//	gqctl [-at 5s,15s,25s]
//	gqctl metrics [-format prom|json] [-until 25s]
//	gqctl events [-type tcp-segment] [-subject prem-src] [-since 10s] [-n 50]
//	gqctl trace [-until 25s] <resv-id>
//	gqctl ctrl [-seed 1] [-until 20s]
//
// The metrics, events, and trace subcommands run the same scenario and
// then dump the observability layer: metrics renders the registry in
// Prometheus text or JSON snapshot format; events lists the flight
// recorder; trace prints the causal span tree of one reservation's
// lifecycle (see docs/observability.md). The ctrl subcommand runs the
// two-domain co-reservation scenario gqd serves as -scenario ctrl and
// dumps its health: breaker states, retry/timeout counters,
// outstanding leases, journal positions, and admission state (see
// docs/control-plane.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/dsrt"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/spans"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "metrics":
			metricsCmd(os.Args[2:])
			return
		case "events":
			eventsCmd(os.Args[2:])
			return
		case "trace":
			traceCmd(os.Args[2:])
			return
		case "ctrl":
			ctrlCmd(os.Args[2:])
			return
		}
	}
	atFlag := flag.String("at", "5s,15s,25s", "comma-separated virtual times to dump state at")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	tb := garnet.New(*seed)
	task, dpss, rs := scenario(tb)
	r1, r2 := rs[0], rs[1]
	fmt.Printf("immediate network reservation %d: %v, window %v\n", r1.ID(), r1.State(), fmtWindow(r1))
	r2.OnChange(func(r *gara.Reservation, s gara.State) {
		fmt.Printf("  [t=%v] reservation %d -> %v\n", tb.K.Now(), r.ID(), s)
	})
	fmt.Printf("advance network reservation %d: %v, window %v\n", r2.ID(), r2.State(), fmtWindow(r2))
	fmt.Printf("co-reservation: cpu %d (%v) + storage %d (%v)\n\n",
		rs[2].ID(), rs[2].State(), rs[3].ID(), rs[3].State())

	var times []time.Duration
	for _, s := range strings.Split(*atFlag, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(s))
		must(err)
		times = append(times, d)
	}
	for _, at := range times {
		must(tb.K.RunUntil(at))
		dump(tb, task, dpss)
	}
}

func dump(tb *garnet.Testbed, task *dsrt.Task, dpss *gara.DPSS) {
	fmt.Printf("=== state at t=%v ===\n", tb.K.Now())
	t := trace.Table{Headers: []string{"link (direction)", "EF capacity", "committed", "utilization"}}
	for _, l := range tb.Net.Links() {
		for _, dir := range []struct {
			label string
			out   *netsim.Iface
		}{
			{l.A().Node().Name() + "->" + l.B().Node().Name(), l.A()},
			{l.B().Node().Name() + "->" + l.A().Node().Name(), l.B()},
		} {
			st := tb.NetRM.Table(dir.out)
			committed := st.CommittedAt(tb.K.Now())
			if committed == 0 {
				continue // only show directions carrying reservations
			}
			t.Add(dir.label,
				units.BitRate(st.Capacity()).String(),
				units.BitRate(committed).String(),
				fmt.Sprintf("%.0f%%", 100*committed/st.Capacity()))
		}
	}
	if len(t.Rows) == 0 {
		t.Add("(no network reservations)", "", "", "")
	}
	fmt.Print(t.String())
	fmt.Printf("DSRT: task %q reservation %.0f%%\n", task.Name(), 100*task.Reservation())
	fmt.Printf("DPSS: %v of %v reserved\n\n", dpss.ReservedRate(), dpss.Capacity())
}

func fmtWindow(r *gara.Reservation) string {
	s, e := r.Window()
	if e == gara.Forever {
		return fmt.Sprintf("[%v, forever)", s)
	}
	return fmt.Sprintf("[%v, %v)", s, e)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// scenario issues the demo reservations: an immediate network
// reservation, an advance one for t=10s..20s, and a co-reservation of
// CPU + storage. rs holds them in that order, the co-reservation as
// its CPU and storage halves. main prints them; the metrics, events,
// and trace subcommands run it to have observable state to dump.
func scenario(tb *garnet.Testbed) (task *dsrt.Task, dpss *gara.DPSS, rs []*gara.Reservation) {
	cpu := dsrt.NewCPU(tb.K, "prem-src-cpu")
	task = cpu.NewTask("app")
	dpss = gara.NewDPSS(100 * units.Mbps)
	flow := diffserv.MatchHostPair(tb.PremSrc.Addr(), tb.PremDst.Addr(), netsim.ProtoTCP)
	r1, err := tb.Gara.Reserve(gara.Spec{
		Type: gara.ResourceNetwork, Flow: flow, Bandwidth: 40 * units.Mbps,
	})
	must(err)
	r2, err := tb.Gara.Reserve(gara.Spec{
		Type: gara.ResourceNetwork, Flow: flow, Bandwidth: 30 * units.Mbps,
		Start: 10 * time.Second, Duration: 10 * time.Second,
	})
	must(err)
	co, err := tb.Gara.CoReserve(
		gara.Spec{Type: gara.ResourceCPU, Task: task, Fraction: 0.8},
		gara.Spec{Type: gara.ResourceStorage, Store: dpss, ReadRate: 60 * units.Mbps},
	)
	must(err)
	return task, dpss, append([]*gara.Reservation{r1, r2}, co...)
}

// metricsCmd implements "gqctl metrics": run the scenario and dump
// the metrics registry.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("gqctl metrics", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.Duration("until", 25*time.Second, "virtual time to run the scenario for")
	format := fs.String("format", "prom", "output format: prom (Prometheus text) or json (snapshot)")
	must(fs.Parse(args))
	tb := garnet.New(*seed)
	scenario(tb)
	must(tb.K.RunUntil(*until))
	reg := tb.K.Metrics()
	switch *format {
	case "prom":
		must(reg.WritePrometheus(os.Stdout))
	case "json":
		must(reg.WriteJSON(os.Stdout))
	default:
		fmt.Fprintf(os.Stderr, "gqctl metrics: unknown format %q (want prom or json)\n", *format)
		os.Exit(2)
	}
}

// eventsCmd implements "gqctl events": run the scenario and list the
// flight recorder.
func eventsCmd(args []string) {
	fs := flag.NewFlagSet("gqctl events", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.Duration("until", 25*time.Second, "virtual time to run the scenario for")
	typ := fs.String("type", "", "only events of this type (e.g. reservation-state)")
	subject := fs.String("subject", "", "only events with this subject")
	since := fs.Duration("since", 0, "only events at or after this virtual time")
	n := fs.Int("n", 0, "show only the last N matching events (0 = all)")
	must(fs.Parse(args))
	f := metrics.EventFilter{Subject: *subject, Since: *since, Last: *n}
	if *typ != "" {
		t, ok := metrics.ParseEventType(*typ)
		if !ok {
			fmt.Fprintf(os.Stderr, "gqctl events: unknown event type %q\n", *typ)
			os.Exit(2)
		}
		f.Type = t
	}
	tb := garnet.New(*seed)
	scenario(tb)
	must(tb.K.RunUntil(*until))
	rec := tb.K.Metrics().Events()
	rows := rec.Query(f)
	t := trace.Table{Headers: []string{"seq", "t", "type", "subject", "v1", "v2", "v3"}}
	for _, e := range rows {
		t.Add(fmt.Sprint(e.Seq), e.At.String(), e.Type.String(), e.Subject,
			fmt.Sprint(e.V1), fmt.Sprint(e.V2), fmt.Sprint(e.V3))
	}
	fmt.Print(t.String())
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Printf("(%d older events overwritten; ring capacity %d)\n", dropped, rec.Capacity())
	}
}

// traceCmd implements "gqctl trace <resv-id>": run the scenario with
// tracing enabled and print the causal span tree of that reservation's
// lifecycle.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("gqctl trace", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.Duration("until", 25*time.Second, "virtual time to run the scenario for")
	must(fs.Parse(args))
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gqctl trace [-seed N] [-until D] <resv-id>")
		os.Exit(2)
	}
	id, err := strconv.ParseUint(fs.Arg(0), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqctl trace: %q is not a decimal reservation id\n", fs.Arg(0))
		os.Exit(2)
	}
	tb := garnet.New(*seed)
	tb.K.Tracer().SetEnabled(true)
	scenario(tb)
	must(tb.K.RunUntil(*until))
	tr := tb.K.Tracer()
	matched := tr.Trace(spans.DeriveTrace(spans.NSReservation, id))
	if len(matched) == 0 {
		// Diagnostics go to stderr so scripted callers piping stdout
		// see the non-zero exit with an empty tree, not a fake one.
		fmt.Fprintf(os.Stderr, "gqctl trace: no spans for reservation %d; reservations traced in this run:\n", id)
		seen := map[spans.TraceID]bool{}
		for _, s := range tr.Query(spans.Filter{NamePrefix: "gara."}) {
			if !seen[s.Trace] {
				seen[s.Trace] = true
				fmt.Fprintf(os.Stderr, "  %s %s (%s)\n", s.Trace, s.Name, s.Subject)
			}
		}
		os.Exit(1)
	}
	must(spans.WriteTree(os.Stdout, matched))
}
