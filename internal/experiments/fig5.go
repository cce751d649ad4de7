package experiments

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trace"
	"mpichgq/internal/units"
)

// PingPongPoint is one (reservation, throughput) sample of Figure 5.
type PingPongPoint struct {
	Reservation units.BitRate
	Throughput  units.BitRate // one-way
	// Policer counts for the run, read from the diffserv metrics:
	// premium-marked packets within/outside the token-bucket profile
	// and out-of-profile drops.
	Conform, Exceed, Dropped int64
	// Events is the kernel's total executed event count for the
	// point's run — the cost metric AblationFluidValidation compares
	// across background modes.
	Events uint64
}

// Figure5Result holds, per message size, the throughput-vs-reservation
// curve of Figure 5.
type Figure5Result struct {
	// MessageSizes in the paper's units: 8, 40, 80, 120 Kb.
	MessageSizes []units.ByteSize
	Curves       map[units.ByteSize][]PingPongPoint
	// NoContention is the peak throughput per size with a quiet
	// network and no reservation — the paper notes performance then
	// matches the curves' plateaus.
	NoContention map[units.ByteSize]units.BitRate
}

// Figure5MessageSizes are the paper's four message sizes (8, 40, 80,
// 120 kilobits).
var Figure5MessageSizes = []units.ByteSize{
	8 * units.Kbit, 40 * units.Kbit, 80 * units.Kbit, 120 * units.Kbit,
}

// Figure5Reservations is the default one-way reservation sweep. The
// paper sweeps 0-12 Mb/s against GARNET's software-limited plateaus;
// our simulated hosts saturate at the RTT limit instead, so the sweep
// extends far enough to cross every plateau (see EXPERIMENTS.md).
var Figure5Reservations = []units.BitRate{
	500 * units.Kbps, 1 * units.Mbps, 2 * units.Mbps, 4 * units.Mbps,
	6 * units.Mbps, 8 * units.Mbps, 12 * units.Mbps, 16 * units.Mbps,
	24 * units.Mbps, 32 * units.Mbps, 48 * units.Mbps,
}

// RunFigure5 reproduces Figure 5: ping-pong one-way throughput as a
// function of reservation size for four message sizes under heavy UDP
// contention. "Achieved throughput improves as the applied
// reservation increases until the reservation is 'adequate' for the
// message size in question, after which further increases in
// reservation size have no significant impact."
func RunFigure5(cfg Config) Figure5Result {
	cfg = cfg.withDefaults()
	res := Figure5Result{
		MessageSizes: Figure5MessageSizes,
		Curves:       make(map[units.ByteSize][]PingPongPoint),
		NoContention: make(map[units.ByteSize]units.BitRate),
	}
	dur := cfg.scale(20 * time.Second)
	// Flatten the sweep into an explicit job list so the points can
	// fan out across workers; reassembly below preserves the original
	// sequential order exactly.
	type job struct {
		size      units.ByteSize
		rsv       units.BitRate
		contended bool
	}
	var jobs []job
	for _, size := range res.MessageSizes {
		for _, rsv := range Figure5Reservations {
			jobs = append(jobs, job{size, rsv, true})
		}
		jobs = append(jobs, job{size, 0, false})
	}
	points := Sweep(cfg.Parallel, len(jobs), func(i int) PingPongPoint {
		j := jobs[i]
		return pingPongThroughput(cfg, i, j.size, j.rsv, j.contended, dur)
	})
	for i, j := range jobs {
		if j.contended {
			res.Curves[j.size] = append(res.Curves[j.size], points[i])
		} else {
			res.NoContention[j.size] = points[i].Throughput
		}
	}
	return res
}

// pingPongThroughput measures one-way ping-pong throughput for one
// (message size, reservation) point on a fresh testbed.
func pingPongThroughput(cfg Config, pid int, msgSize units.ByteSize, reservation units.BitRate, contended bool, dur time.Duration) PingPongPoint {
	tb := garnet.New(cfg.Seed)
	defer tb.Close()
	cfg.enableTrace(tb.K)
	p := StartPingPong(cfg, tb, msgSize, reservation, contended, dur)
	if err := tb.K.RunUntil(dur); err != nil {
		panic(fmt.Sprintf("experiments: figure 5: %v", err))
	}
	cfg.collectTrace(tb.K, pid, fmt.Sprintf("fig5 msg=%dKb rsv=%.0fKb/s", msgSize.Bits()/1000, reservation.Kbps()))
	return p.Result()
}

// PingPong is one Figure 5 point running on a testbed.
type PingPong struct {
	tb          *garnet.Testbed
	reservation units.BitRate
	dur         time.Duration
	recvBytes   *metrics.Counter
	baseline    int64
}

// StartPingPong builds one Figure 5 point on tb: the contention
// generator (packet-level or fluid per cfg) when contended, and an MPI
// pair on the premium hosts that ping-pongs msgSize messages until dur
// under a premium reservation of that one-way bandwidth (0 = best
// effort). Run tb's kernel to dur, then read the point with Result.
func StartPingPong(cfg Config, tb *garnet.Testbed, msgSize units.ByteSize, reservation units.BitRate, contended bool, dur time.Duration) *PingPong {
	if contended {
		cfg.blast(tb, 0, 0)
	}
	p := &PingPong{tb: tb, reservation: reservation, dur: dur}
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{})
	agent := gq.NewAgent(tb.Gara, job)
	// The x-axis of Figure 5 is the raw network reservation, so
	// disable the agent's overhead scaling for this experiment.
	agent.OverheadFactor = 1.0
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		if reservation > 0 {
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: reservation}
			// Both ranks put the attribute: both directions carry
			// data in a ping-pong, so "total throughput — and
			// reservation — is twice what is shown here, when summed
			// over both directions."
			if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
				panic(fmt.Sprintf("fig5 reservation: %v", err))
			}
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			// Sample the baseline here so the PairComm handshake (and
			// any setup traffic) is excluded from the measurement.
			p.recvBytes = r.RecvBytesCounter(pc)
			p.baseline = p.recvBytes.Value()
		}
		for ctx.Now() < dur {
			if r.ID() == 0 {
				if err := r.Send(ctx, pc, peer, 0, msgSize, nil); err != nil {
					return
				}
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
			} else {
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
				if err := r.Send(ctx, pc, peer, 0, msgSize, nil); err != nil {
					return
				}
			}
		}
	})
	return p
}

// Result reads the point once its kernel has run to dur.
//
// One-way goodput is read from the metrics layer rather than counted
// by hand: rank 0 receives exactly one msgSize reply per completed
// round trip, so the delta of its mpi_recv_bytes_total counter on the
// pair comm over the measurement window is the one-way byte count.
func (p *PingPong) Result() PingPongPoint {
	var oneWayBytes units.ByteSize
	if p.recvBytes != nil {
		oneWayBytes = units.ByteSize(p.recvBytes.Value() - p.baseline)
	}
	reg := p.tb.K.Metrics()
	conform, _ := reg.CounterValue("diffserv_conform_packets_total", "dscp", "EF")
	exceed, _ := reg.CounterValue("diffserv_exceed_packets_total", "dscp", "EF")
	dropped, _ := reg.CounterValue("diffserv_police_drops_total", "dscp", "EF")
	return PingPongPoint{
		Reservation: p.reservation,
		Throughput:  units.RateOf(oneWayBytes, p.dur),
		Conform:     conform, Exceed: exceed, Dropped: dropped,
		Events: p.tb.K.EventsRun(),
	}
}

// Figure5Table renders the result like the paper's plot, one row per
// reservation with a column per message size.
func Figure5Table(r Figure5Result) trace.Table {
	t := trace.Table{
		Title:   "Figure 5: ping-pong one-way throughput (Kb/s) vs one-way reservation",
		Headers: []string{"reservation"},
	}
	for _, s := range r.MessageSizes {
		t.Headers = append(t.Headers, fmt.Sprintf("%dKb msgs", s.Bits()/1000))
	}
	for i := range r.Curves[r.MessageSizes[0]] {
		row := []string{fmt.Sprintf("%.0f", r.Curves[r.MessageSizes[0]][i].Reservation.Kbps())}
		for _, s := range r.MessageSizes {
			row = append(row, fmt.Sprintf("%.0f", r.Curves[s][i].Throughput.Kbps()))
		}
		t.Add(row...)
	}
	row := []string{"no-contention"}
	for _, s := range r.MessageSizes {
		row = append(row, fmt.Sprintf("%.0f", r.NoContention[s].Kbps()))
	}
	t.Add(row...)
	return t
}
