package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/faults"
	"mpichgq/internal/garnet"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// Figure H: job survival rate and time-to-recover under rank failures.
//
// A four-rank master/worker job runs a fixed number of BSP steps
// against a deadline while workers crash and restart on an
// exponential MTBF schedule. Worker 1 receives its task data over a
// premium pair communicator whose reservation the QoS watchdog
// re-reserves through GARA after each restart (the rebind path); the
// other workers ride best effort. Each (MTBF, checkpointing) cell
// runs several seeded trials; the figure plots the fraction of trials
// that finish every step before the deadline, and the mean
// crash-to-recovery time, with and without periodic checkpoints.

// figHSteps is the number of BSP steps a trial must complete to count
// as survived.
const figHSteps = 80

// figHCkptEvery is the checkpoint cadence in steps (checkpointing
// trials only); a restart rolls the job back at most this far.
const figHCkptEvery = 8

// figHTrials is the number of seeded trials per (MTBF, mode) cell.
const figHTrials = 5

// figHChunk is worker 1's per-step task payload — above the eager
// threshold so every premium step exercises the rendezvous protocol
// (the hardest path to keep hang-free across a crash).
const figHChunk = 192 * units.KB

// figHTaskSize is the best-effort workers' per-step task payload.
const figHTaskSize = 8 * units.KB

// figHCtl is the size of the ready/done control messages.
const figHCtl = units.KB

// figHReserve is the premium reservation for worker 1's task stream.
const figHReserve = 20 * units.Mbps

// figHTarget is the watchdog's goodput target for that stream, set
// below the stream's bursty steady-state mean so only a real outage
// breaches.
const figHTarget = 2 * units.Mbps

// Control-protocol tags.
const (
	tagHReady = 1<<19 + 0
	tagHTask  = 1<<19 + 1
	tagHDone  = 1<<19 + 2
)

// FigureHPoint aggregates one (MTBF, checkpointing) cell.
type FigureHPoint struct {
	MTBF time.Duration
	Ckpt bool
	// Trials and how many of them completed all steps in time.
	Trials   int
	Survived int
	// SurvivalRate is Survived / Trials.
	SurvivalRate float64
	// Crashes counts rank-crash events across the cell's trials.
	Crashes int
	// MeanTTR is the mean time from a crash to the job's first
	// progress past its pre-crash high-water step (0 when no crash
	// recovered within a trial).
	MeanTTR time.Duration
	// Rebinds counts watchdog premium re-reservations after restarts.
	Rebinds int
}

// FigureHResult holds the survival figure: checkpointed and
// checkpoint-free runs across rank MTBFs.
type FigureHResult struct {
	MTBFs  []time.Duration
	Ckpt   []FigureHPoint
	NoCkpt []FigureHPoint
}

// figHTrialOut is one trial's raw outcome.
type figHTrialOut struct {
	survived bool
	crashes  int
	ttrSum   time.Duration
	ttrN     int
	rebinds  int
}

// figHState is the per-worker checkpoint payload: the premium pair
// communicator handle (worker 1 only) a restarted incarnation needs.
type figHState struct {
	pc *mpi.Comm
}

// RunFigureH runs the rank-failure survival figure.
func RunFigureH(cfg Config) FigureHResult {
	cfg = cfg.withDefaults()
	res := FigureHResult{MTBFs: []time.Duration{
		20 * time.Second, 45 * time.Second, 90 * time.Second, 180 * time.Second,
	}}
	// Point layout: MTBF-major, then mode (ckpt first), then trial, so
	// every trial owns a stable index for seeding and tracing.
	n := len(res.MTBFs) * 2 * figHTrials
	outs := Sweep(cfg.Parallel, n, func(i int) figHTrialOut {
		mi := i / (2 * figHTrials)
		rest := i % (2 * figHTrials)
		ckpt := rest/figHTrials == 0
		return runFigHTrial(cfg, i, DeriveSeed(cfg.Seed, i), res.MTBFs[mi], ckpt)
	})
	for mi, mtbf := range res.MTBFs {
		for mode := 0; mode < 2; mode++ {
			pt := FigureHPoint{MTBF: mtbf, Ckpt: mode == 0, Trials: figHTrials}
			ttrSum := time.Duration(0)
			ttrN := 0
			for t := 0; t < figHTrials; t++ {
				o := outs[mi*2*figHTrials+mode*figHTrials+t]
				if o.survived {
					pt.Survived++
				}
				pt.Crashes += o.crashes
				pt.Rebinds += o.rebinds
				ttrSum += o.ttrSum
				ttrN += o.ttrN
			}
			pt.SurvivalRate = float64(pt.Survived) / float64(pt.Trials)
			if ttrN > 0 {
				pt.MeanTTR = ttrSum / time.Duration(ttrN)
			}
			if pt.Ckpt {
				res.Ckpt = append(res.Ckpt, pt)
			} else {
				res.NoCkpt = append(res.NoCkpt, pt)
			}
		}
	}
	return res
}

// runFigHTrial runs one seeded trial: a 4-rank job (coordinator on
// the premium source; workers on the premium destination and both
// competitive hosts) racing figHSteps BSP steps against the deadline
// while the MTBF schedule crashes and restarts workers.
func runFigHTrial(cfg Config, pid int, seed int64, mtbf time.Duration, ckpt bool) figHTrialOut {
	dur := cfg.scale(60 * time.Second)
	stepWork := cfg.scale(250 * time.Millisecond)
	repair := cfg.scale(3 * time.Second)
	poll := cfg.scale(100 * time.Millisecond)

	tb := garnet.NewWithOptions(garnet.Options{Seed: seed})
	defer tb.Close()
	cfg.enableTrace(tb.K)
	job := tb.NewMPIJob(
		[]*netsim.Node{tb.PremSrc, tb.PremDst, tb.CompSrc, tb.CompDst},
		tcpsim.DefaultOptions(), mpi.JobOptions{})
	agent := gq.NewAgent(tb.Gara, job)

	// The failure schedule: workers only — the coordinator holds the
	// job's global state and is assumed reliable (a restartable
	// coordinator is a different paper).
	sc := faults.RankMTBF(sim.NewRNG(tb.K.RNG().Int63()),
		[]string{"rank-1", "rank-2", "rank-3"},
		cfg.scale(mtbf), repair, dur)
	sc.MustApplyTargets(tb.Net, faults.Targets{Ranks: job})

	out := figHTrialOut{}
	// TTR bookkeeping: every crash opens an outage stamped with the
	// job's current high-water step; the first progress past that mark
	// closes it.
	type outage struct {
		at time.Duration
		hw int
	}
	var open []outage
	highWater := 0
	job.Notify(func(rank int, ev mpi.RankEvent) {
		if ev == mpi.RankCrashed {
			out.crashes++
			open = append(open, outage{at: tb.K.Now(), hw: highWater})
		}
	})

	var wd *gq.Watchdog
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		world := r.World()
		if r.ID() != 0 {
			figHWorker(ctx, r, world, stepWork, ckpt)
			return
		}

		// Coordinator. Establish the premium pair with worker 1,
		// retrying across crash-during-handshake (each retry pairs with
		// the next incarnation's attempt).
		var pc *mpi.Comm
		for {
			c, err := r.PairComm(ctx, 1)
			if err == nil {
				pc = c
				break
			}
			for job.Failed(1) && ctx.Now() < dur {
				ctx.Sleep(poll)
			}
			if ctx.Now() >= dur {
				return
			}
		}
		peer1 := 1 - r.RankIn(pc)
		attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: figHReserve}
		if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
			panic(err)
		}
		w, err := agent.NewWatchdog(r, pc, figHTarget)
		if err != nil {
			panic(err)
		}
		w.Backoff = gq.NewBackoff(sim.NewRNG(tb.K.RNG().Int63()),
			cfg.scale(500*time.Millisecond), cfg.scale(4*time.Second))
		wd = w
		ctx.SpawnChild("figH-watchdog", func(wctx *sim.Ctx) {
			w.Run(wctx, cfg.scale(250*time.Millisecond), dur)
		})

		// awaitReady blocks until worker w's (re)start announcement,
		// rolling the global step back to the step it resumes from.
		g := 0
		awaitReady := func(w int) bool {
			for ctx.Now() < dur {
				m, err := r.Recv(ctx, world, w, mpi.AnyTag)
				if err != nil {
					ctx.Sleep(poll) // still down; poll for the restart
					continue
				}
				if m.Tag == tagHReady {
					if s := m.Data.(int); s < g {
						g = s
					}
					return true
				}
				// A stale done from the previous incarnation: discard.
			}
			return false
		}
		for w := 1; w <= 3; w++ {
			if !awaitReady(w) {
				return
			}
		}

		// BSP rounds.
		for g < figHSteps && ctx.Now() < dur {
			lost := [4]bool{}
			for w := 1; w <= 3; w++ {
				var err error
				if w == 1 {
					err = r.Send(ctx, pc, peer1, tagHTask, figHChunk, g)
				} else {
					err = r.Send(ctx, world, w, tagHTask, figHTaskSize, g)
				}
				if err != nil {
					lost[w] = true
				}
			}
			recovered := false
			for w := 1; w <= 3; w++ {
				if lost[w] {
					if !awaitReady(w) {
						return
					}
					recovered = true
					continue
				}
				m, err := r.Recv(ctx, world, w, mpi.AnyTag)
				if err != nil || m.Tag == tagHReady {
					if err == nil {
						// The worker already restarted and announced.
						if s := m.Data.(int); s < g {
							g = s
						}
					} else if !awaitReady(w) {
						return
					}
					recovered = true
				}
				// tagHDone: the round step completed on w.
			}
			if recovered {
				continue // redo the (rolled-back) round
			}
			g++
			if g > highWater {
				highWater = g
				kept := open[:0]
				for _, o := range open {
					if g > o.hw {
						out.ttrSum += ctx.Now() - o.at
						out.ttrN++
						continue
					}
					kept = append(kept, o)
				}
				open = kept
			}
		}
		if g >= figHSteps {
			out.survived = true
			for w := 1; w <= 3; w++ {
				if job.Failed(w) {
					continue
				}
				if w == 1 {
					_ = r.Send(ctx, pc, peer1, tagHTask, figHCtl, -1)
				} else {
					_ = r.Send(ctx, world, w, tagHTask, figHCtl, -1)
				}
			}
		}
	})

	if err := tb.K.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure H (mtbf %v ckpt %v): %v", mtbf, ckpt, err))
	}
	if wd != nil {
		out.rebinds = wd.Rebinds()
	}
	mode := "no-ckpt"
	if ckpt {
		mode = "ckpt"
	}
	cfg.collectTrace(tb.K, pid, fmt.Sprintf("figH mtbf=%v %s", mtbf, mode))
	return out
}

// figHWorker is the worker main, shared by first incarnations and
// restarts: recover state from the last checkpoint, announce
// readiness, then serve task rounds until stopped or crashed.
func figHWorker(ctx *sim.Ctx, r *mpi.Rank, world *mpi.Comm, stepWork time.Duration, ckpt bool) {
	step := 0
	var pc *mpi.Comm
	if ck, ok := r.LastCheckpoint(); ok {
		// Restarted incarnation: resume from the snapshot.
		step = ck.Step
		if st, ok2 := ck.State.(figHState); ok2 {
			pc = st.pc
		}
	} else if r.ID() == 1 {
		// First incarnation of the premium worker: pair with the
		// coordinator before announcing ready, so the handle is in the
		// init snapshot every later incarnation recovers.
		c, err := r.PairComm(ctx, 0)
		if err != nil {
			return // crashed mid-handshake; the restart retries
		}
		pc = c
	}
	r.SaveInitState(figHState{pc: pc})
	if err := r.Send(ctx, world, 0, tagHReady, figHCtl, step); err != nil {
		return
	}
	for {
		var m mpi.Message
		var err error
		if r.ID() == 1 {
			m, err = r.Recv(ctx, pc, 1-r.RankIn(pc), tagHTask)
		} else {
			m, err = r.Recv(ctx, world, 0, tagHTask)
		}
		if err != nil {
			return // crashed (the coordinator never fails)
		}
		s := m.Data.(int)
		if s < 0 {
			return // stop marker: the job completed
		}
		r.Compute(ctx, stepWork)
		if r.Crashed() {
			return
		}
		if ckpt && (s+1)%figHCkptEvery == 0 {
			r.SaveCheckpoint(ctx, s+1, figHState{pc: pc})
		}
		if err := r.Send(ctx, world, 0, tagHDone, figHCtl, s); err != nil {
			return
		}
	}
}

// FigureHTable renders the survival comparison.
func FigureHTable(r FigureHResult) trace.Table {
	t := trace.Table{Headers: []string{
		"rank MTBF", "ckpt survival", "ckpt TTR", "no-ckpt survival", "no-ckpt TTR", "crashes", "rebinds",
	}}
	for i := range r.MTBFs {
		ck, nc := r.Ckpt[i], r.NoCkpt[i]
		t.Add(r.MTBFs[i].String(),
			fmt.Sprintf("%d/%d", ck.Survived, ck.Trials),
			ck.MeanTTR.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", nc.Survived, nc.Trials),
			nc.MeanTTR.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", ck.Crashes+nc.Crashes),
			fmt.Sprintf("%d", ck.Rebinds+nc.Rebinds))
	}
	return t
}
