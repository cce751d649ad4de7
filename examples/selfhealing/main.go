// Self-healing QoS: fault injection, failover, and reservation repair.
//
// A premium MPI flow streams at 10 Mb/s across the GARNET bottleneck
// while a UDP blaster floods the same path. A fault scenario takes the
// bottleneck link down for four seconds mid-run. The QoS agent's
// watchdog notices the broken guarantee, retries re-admission with
// exponential backoff, and restores the premium reservation once the
// link returns — without the application changing a line.
//
// The program prints a per-second goodput timeline and then the
// flight-recorder events that tell the story: the link flap, the fault
// injections, and each phase of the repair state machine.
//
//	go run ./examples/selfhealing
package main

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

func main() {
	const (
		target = 10 * units.Mbps
		msg    = 25 * units.KB
		downAt = 6 * time.Second
		upAt   = 10 * time.Second
		runFor = 18 * time.Second
	)

	tb := garnet.New(1)
	// A long run emits millions of packet-level events; keep enough of
	// the ring to still hold the handful of fault and repair records.
	tb.K.Metrics().Events().SetCapacity(1 << 22)

	// Chaos: flap the shared bottleneck link mid-run.
	faults.NewScenario("demo").
		Flap("edge1-core", downAt, upAt).
		MustApply(tb.Net, faults.Targets{})

	// Contention crossing the same bottleneck throughout.
	blaster := &trafficgen.UDPBlaster{Rate: 160 * units.Mbps, Jitter: 0.1}
	if err := blaster.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		panic(err)
	}

	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)

	perSec := make([]units.ByteSize, int(runFor/time.Second))
	var wd *gq.Watchdog
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: target}
			if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
				panic(err)
			}
			w, err := agent.NewWatchdog(r, pc, target)
			if err != nil {
				panic(err)
			}
			wd = w
			ctx.SpawnChild("watchdog", func(wctx *sim.Ctx) {
				w.Run(wctx, 250*time.Millisecond, runFor)
			})
			gap := target.TimeToSend(msg)
			for ctx.Now() < runFor {
				if err := r.Send(ctx, pc, peer, 0, msg, nil); err != nil {
					return
				}
				ctx.Sleep(gap)
			}
			return
		}
		for {
			m, err := r.Recv(ctx, pc, peer, 0)
			if err != nil {
				return
			}
			if s := int(ctx.Now() / time.Second); s < len(perSec) {
				perSec[s] += m.Len
			}
		}
	})
	if err := tb.K.RunUntil(runFor); err != nil {
		panic(err)
	}

	fmt.Printf("10 Mb/s premium flow; bottleneck down %v..%v; blaster at 160 Mb/s throughout\n\n",
		downAt, upAt)
	fmt.Println("goodput timeline:")
	for s, b := range perSec {
		rate := units.RateOf(b, time.Second)
		bar := int(rate / units.Mbps / 2)
		fmt.Printf("  %2ds  %9v  %s\n", s, rate, barString(bar))
	}
	fmt.Printf("\nwatchdog: %d repairs, %d fallbacks, %d upgrades\n",
		wd.Repairs(), wd.Fallbacks(), wd.Upgrades())

	fmt.Println("\nflight recorder (faults and repair phases):")
	for _, ev := range tb.K.Metrics().Events().Snapshot() {
		switch ev.Type {
		case metrics.EvLinkDown, metrics.EvLinkUp, metrics.EvFaultInject, metrics.EvQosRepair:
			fmt.Printf("  %8.3fs  %-12s %s\n", ev.At.Seconds(), ev.Type, ev.Subject)
		}
	}
}

func barString(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}
