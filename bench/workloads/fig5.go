package workloads

import (
	"fmt"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/experiments"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"
)

// Fig5 is the Figure 5 sweep, point for point as
// experiments.RunFigure5 builds it: for each of the four message sizes
// a ping-pong under UDP contention at each of the eleven reservations,
// then one quiet point with no reservation. fluid selects the fluid
// background blaster over the packet-level one; timeScale multiplies
// the paper's 20 virtual seconds per point.
func Fig5(seed int64, fluid bool, timeScale float64) *Workload {
	type job struct {
		size      units.ByteSize
		rsv       units.BitRate
		contended bool
	}
	var jobs []job
	for _, size := range experiments.Figure5MessageSizes {
		for _, rsv := range experiments.Figure5Reservations {
			jobs = append(jobs, job{size, rsv, true})
		}
		jobs = append(jobs, job{size, 0, false})
	}
	name := "fig5-packet"
	if fluid {
		name = "fig5-fluid"
	}
	dur := time.Duration(float64(20*time.Second) * timeScale)
	return &Workload{
		Name:   name,
		Points: len(jobs),
		New: func(i int) (Point, error) {
			j := jobs[i]
			return newFig5Point(seed, fluid, j.size, j.rsv, j.contended, dur)
		},
	}
}

// fig5Point is one ping-pong: rank 0 on the premium source, rank 1 on
// the premium destination, both putting the reservation attribute on
// their pair communicator.
type fig5Point struct {
	tb        *garnet.Testbed
	dur       time.Duration
	size      units.ByteSize
	rsv       units.BitRate
	contended bool
	recvBytes *metrics.Counter
	baseline  int64
}

func newFig5Point(seed int64, fluid bool, size units.ByteSize, rsv units.BitRate, contended bool, dur time.Duration) (*fig5Point, error) {
	tb := garnet.New(seed)
	p := &fig5Point{tb: tb, dur: dur, size: size, rsv: rsv, contended: contended}
	if contended {
		b := trafficgen.NewBackground(trafficgen.BackgroundOptions{
			Rate:       experiments.ContentionRate,
			PacketSize: 1000,
			Jitter:     0.1,
			Fluid:      fluid,
		})
		if err := b.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
			return nil, err
		}
	}
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{})
	agent := gq.NewAgent(tb.Gara, job)
	// The x-axis of Figure 5 is the raw network reservation.
	agent.OverheadFactor = 1.0
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		if rsv > 0 {
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: rsv}
			if err := r.AttrPut(pc, agent.Keyval(), attr); err != nil {
				panic(fmt.Sprintf("fig5 reservation: %v", err))
			}
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			p.recvBytes = r.RecvBytesCounter(pc)
			p.baseline = p.recvBytes.Value()
		}
		for ctx.Now() < dur {
			if r.ID() == 0 {
				if err := r.Send(ctx, pc, peer, 0, size, nil); err != nil {
					return
				}
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
			} else {
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
				if err := r.Send(ctx, pc, peer, 0, size, nil); err != nil {
					return
				}
			}
		}
	})
	return p, nil
}

func (p *fig5Point) Ops() int { return steps(p.dur) }

func (p *fig5Point) Op(j int) (string, error) {
	return "sim.Kernel.RunUntil", p.tb.K.RunUntil(stepEnd(j, p.dur))
}

func (p *fig5Point) Registry() *metrics.Registry { return p.tb.K.Metrics() }

// result reads the point the way experiments.RunFigure5 does.
func (p *fig5Point) result() experiments.PingPongPoint {
	var oneWay units.ByteSize
	if p.recvBytes != nil {
		oneWay = units.ByteSize(p.recvBytes.Value() - p.baseline)
	}
	reg := p.tb.K.Metrics()
	conform, _ := reg.CounterValue("diffserv_conform_packets_total", "dscp", "EF")
	exceed, _ := reg.CounterValue("diffserv_exceed_packets_total", "dscp", "EF")
	dropped, _ := reg.CounterValue("diffserv_police_drops_total", "dscp", "EF")
	return experiments.PingPongPoint{
		Reservation: p.rsv,
		Throughput:  units.RateOf(oneWay, p.dur),
		Conform:     conform, Exceed: exceed, Dropped: dropped,
		Events: p.tb.K.EventsRun(),
	}
}

func (p *fig5Point) Collect() (Result, error) {
	pt := p.result()
	// A quiet network always completes round trips, and nothing beats
	// the access link.
	if (!p.contended && pt.Throughput <= 0) || pt.Throughput > p.tb.Options().AccessRate {
		return Result{}, fmt.Errorf("fig5 size=%v rsv=%v contended=%v: throughput %v", p.size, p.rsv, p.contended, pt.Throughput)
	}
	return Result{
		Record: record("size", int64(p.size), "rsv", float64(p.rsv), "contended", p.contended,
			"tput", float64(pt.Throughput), "conform", pt.Conform, "exceed", pt.Exceed,
			"dropped", pt.Dropped, "events", pt.Events),
		Counts: map[string]float64{
			CountEvents: float64(pt.Events),
			CountSlots:  float64(p.tb.NetRM.Table(p.tb.Bottleneck.A()).Len()),
		},
	}, nil
}
