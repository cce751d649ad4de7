// Command gqd is the live observability daemon: it runs a garnet
// scenario on a simulation kernel in the background and serves the
// observability layer over HTTP while the experiment executes.
//
//	gqd [-addr 127.0.0.1:7070] [-scenario fig5|ctrl] [-seed 1]
//	    [-dur 60s] [-step 250ms] [-pace 10ms]
//
// Endpoints:
//
//	/healthz  liveness + progress (virtual now, scenario, span counts)
//	/metrics  Prometheus text exposition of the kernel's registry
//	/traces   completed causal spans; query by resv, trace, class,
//	          name, subject, status, min_dur, limit; format=json|tree
//	/events   flight-recorder tail; filter by type, subject, since, n
//
// The kernel remains single-threaded: a stepper goroutine advances
// virtual time in -step slices under a mutex, and every handler that
// touches live kernel state takes the same mutex. The span ring and
// the flight recorder carry their own locks, so trace queries read
// concurrently with the simulation. -pace throttles wall-clock speed
// so operators can watch state evolve; 0 free-runs to the end, after
// which the daemon keeps serving the final state until SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "HTTP listen address (host:0 picks a free port, printed on startup)")
	scenario := flag.String("scenario", "fig5", "live scenario: fig5 (premium ping-pong under contention) or ctrl (two-domain co-reservation chaos)")
	seed := flag.Int64("seed", 1, "simulation seed")
	dur := flag.Duration("dur", 60*time.Second, "virtual duration of the scenario")
	step := flag.Duration("step", 250*time.Millisecond, "virtual time advanced per scheduling slice")
	pace := flag.Duration("pace", 10*time.Millisecond, "real time to sleep between slices (0 = free-run)")
	flag.Parse()

	k, extras, err := buildScenario(*scenario, *seed, *dur)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d := &daemon{scenario: *scenario, dur: *dur, k: k, extras: extras}

	// The stepper drives the single-threaded kernel; handlers interleave
	// with it through d.mu, never concurrently with it.
	//lint:ignore determinism gqd is a host-side daemon wrapping the kernel; all kernel access is serialized by d.mu, so goroutine interleaving cannot reorder simulation events
	go d.step(*step, *pace)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.mux()}
	errc := make(chan error, 1)
	//lint:ignore determinism the HTTP accept loop is host-side I/O, outside the simulation
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("gqd: scenario %s (seed %d, virtual %v) on http://%s\n",
		*scenario, *seed, *dur, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d.close()
		fmt.Println("gqd: shut down cleanly")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
