package faults_test

import (
	"fmt"
	"testing"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/experiments"
	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// chaosResult is what one randomized soak run reports for invariant
// checking.
type chaosResult struct {
	recvBytes  units.ByteSize // total premium payload received
	finalBytes units.ByteSize // received in the settle window after faults end
	repairs    int
	allActive  bool // every premium reservation Active at the end
}

// chaosRun drives a premium MPI flow (with self-healing watchdog)
// under blaster contention through a randomized fault scenario, then
// lets the network settle and reports the outcome. The scenario is
// drawn from its own RNG so a fixed seed replays exactly.
//
// Failures report through t.Error (goroutine-safe), never t.Fatal:
// the soak fans runs out across workers via experiments.Sweep, and
// FailNow must only be called from the test goroutine.
func chaosRun(t *testing.T, seed int64, nFaults int, horizon, settle time.Duration) chaosResult {
	const target = 10 * units.Mbps
	const msg = 25 * units.KB
	dur := horizon + settle
	tb := garnet.New(seed)
	links := []string{"edge1-core", "core-edge2", "prem-src-edge1"}
	sc := faults.RandomScenario(sim.NewRNG(seed*1000+7), links, nFaults, horizon)
	if _, err := sc.Apply(tb.Net, faults.Targets{}); err != nil {
		t.Error(err)
		return chaosResult{}
	}
	bl := &trafficgen.UDPBlaster{Rate: 120 * units.Mbps, Jitter: 0.1}
	if err := bl.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
		t.Error(err)
		return chaosResult{}
	}
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{EagerThreshold: units.MB})
	agent := gq.NewAgent(tb.Gara, job)
	var res chaosResult
	var wd *gq.Watchdog
	var sender *mpi.Rank
	var senderComm *mpi.Comm
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			t.Error(err)
			return
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			sender, senderComm = r, pc
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: target}
			if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
				t.Error(err)
				return
			}
			w, err := agent.NewWatchdog(r, pc, target)
			if err != nil {
				t.Error(err)
				return
			}
			wd = w
			ctx.SpawnChild("watchdog", func(wctx *sim.Ctx) {
				w.Run(wctx, 250*time.Millisecond, dur)
			})
			gap := target.TimeToSend(msg)
			for ctx.Now() < dur {
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
			res.recvBytes += m.Len
			if ctx.Now() >= horizon+settle/2 {
				res.finalBytes += m.Len
			}
		}
	})
	// Invariant: the kernel never deadlocks or errors mid-chaos.
	if err := tb.K.RunUntil(dur); err != nil {
		t.Errorf("seed %d: kernel error under chaos: %v", seed, err)
		return chaosResult{}
	}
	res.repairs = wd.Repairs() + wd.Upgrades()
	// Invariant: after the last fault is repaired the agent converges
	// back to a fully Active premium binding.
	if b, ok := agent.Binding(sender, senderComm); ok {
		res.allActive = true
		for _, r := range b.Reservations {
			if r.State().String() != "active" {
				res.allActive = false
			}
		}
	}
	// Invariant: reservation accounting is conserved — after releasing
	// everything, no link direction retains committed EF capacity.
	agent.ReleaseAll()
	now := tb.K.Now()
	for _, l := range tb.Net.Links() {
		if u := tb.NetRM.Utilization(l, now); u != 0 {
			t.Errorf("seed %d: link %s retains EF commitment %v after release",
				seed, l.Name(), u)
		}
	}
	return res
}

// TestChaosSoak sweeps randomized fault scenarios and asserts the
// self-healing invariants hold for every seed. -short runs a reduced
// sweep for CI; the full run covers more seeds and a longer horizon.
func TestChaosSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	nFaults, horizon, settle := 6, 25*time.Second, 15*time.Second
	if testing.Short() {
		seeds = []int64{1, 2}
		nFaults, horizon, settle = 3, 12*time.Second, 8*time.Second
	}
	// The runs fan out across workers (each on its own kernel), and
	// the per-seed assertions then run sequentially in seed order —
	// same invariants and output order as the old sequential sweep.
	results := experiments.Sweep(0, len(seeds), func(i int) chaosResult {
		return chaosRun(t, seeds[i], nFaults, horizon, settle)
	})
	for i, res := range results {
		res := res
		t.Run(fmt.Sprintf("seed%d", seeds[i]), func(t *testing.T) {
			if res.recvBytes == 0 {
				t.Fatal("premium flow made no progress under chaos")
			}
			if !res.allActive {
				t.Fatal("premium binding did not converge to Active after final repair")
			}
			// The settle window is fault-free; a converged agent must
			// be moving real traffic again.
			rate := units.RateOf(res.finalBytes, settle/2)
			if rate < 5*units.Mbps {
				t.Fatalf("post-chaos goodput = %v, want at least half the 10 Mb/s target", rate)
			}
		})
	}
}

// TestChaosDeterministic replays one seed and requires bit-identical
// traffic and repair outcomes.
func TestChaosDeterministic(t *testing.T) {
	nFaults, horizon, settle := 3, 12*time.Second, 8*time.Second
	a := chaosRun(t, 9, nFaults, horizon, settle)
	b := chaosRun(t, 9, nFaults, horizon, settle)
	if a != b {
		t.Fatalf("same seed, different outcomes:\n  %+v\n  %+v", a, b)
	}
}
