package gq

import (
	"fmt"
	"time"

	"mpichgq/internal/mpi"
	"mpichgq/internal/nws"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Adapter implements the paper's §5.4 proposal to "compute the
// 'correct' token bucket size dynamically, by using
// application-specific information and perhaps also dynamic network
// performance data": an NWS monitor watches the flow's achieved
// throughput and loss, and a control loop grows the reservation (and
// with it the bucket) while the application's target is not met, and
// decays it when the flow is over-provisioned — since an oversized
// reservation "is also expending scarce system resources".
type Adapter struct {
	agent *Agent
	rank  *mpi.Rank
	comm  *mpi.Comm
	// Target is the application's actual desired payload rate.
	Target units.BitRate
	// GrowFactor scales the reservation up on each starved interval
	// (default 1.15); DecayFactor scales it down when comfortably
	// over-provisioned (default 0.95).
	GrowFactor, DecayFactor float64
	// Headroom is the over-provisioning ratio above which decay
	// kicks in (default 1.3).
	Headroom float64

	monitor *nws.Monitor
}

// NewAdapter prepares adaptation of rank r's binding on c toward
// target. The binding must already exist (AttrPut first).
func (a *Agent) NewAdapter(r *mpi.Rank, c *mpi.Comm, target units.BitRate) (*Adapter, error) {
	if _, ok := a.Binding(r, c); !ok {
		return nil, fmt.Errorf("gq: no QoS binding to adapt on this communicator")
	}
	return &Adapter{
		agent:      a,
		rank:       r,
		comm:       c,
		Target:     target,
		GrowFactor: 1.15, DecayFactor: 0.95, Headroom: 1.3,
	}, nil
}

// Run executes the control loop in the calling process until dur
// elapses. interval is both the NWS sampling period and the
// adjustment period.
func (ad *Adapter) Run(ctx *sim.Ctx, interval, dur time.Duration) {
	peer := ad.peerRank()
	conn := ad.rank.Conn(peer)
	if conn == nil {
		return
	}
	k := ad.agent.g.Kernel()
	ad.monitor = nws.Attach(k, conn.Conn(), interval)
	defer ad.monitor.Stop()
	deadline := k.Now() + dur
	for k.Now() < deadline {
		ctx.Sleep(interval)
		ad.step()
	}
}

// peerRank returns the world rank of the other endpoint of a
// two-party communicator.
func (ad *Adapter) peerRank() int {
	for _, g := range ad.comm.Group() {
		if g != ad.rank.ID() {
			return g
		}
	}
	return -1
}

// step makes one control decision.
func (ad *Adapter) step() {
	b, ok := ad.agent.Binding(ad.rank, ad.comm)
	if !ok || ad.monitor.Throughput.Len() < 2 {
		return
	}
	achieved := ad.monitor.ThroughputForecast()
	loss := ad.monitor.LossForecast()
	attr := b.Attr
	switch {
	case float64(achieved) < 0.95*float64(ad.Target) && loss > 0:
		// Starved and dropping: the reservation/bucket is too small.
		attr.Bandwidth = units.BitRate(float64(attr.Bandwidth) * ad.GrowFactor)
		// On admission failure, keep the current reservation.
		_ = ad.agent.Apply(ad.rank, ad.comm, &attr)
	case float64(attr.Bandwidth) > ad.Headroom*float64(ad.Target) && loss == 0:
		// Comfortably over-provisioned: release scarce EF capacity.
		next := units.BitRate(float64(attr.Bandwidth) * ad.DecayFactor)
		if float64(next) < float64(ad.Target)*1.06 {
			next = units.BitRate(float64(ad.Target) * 1.06)
		}
		if next < attr.Bandwidth {
			attr.Bandwidth = next
			_ = ad.agent.Apply(ad.rank, ad.comm, &attr)
		}
	}
}

// Current returns the binding's current reserved bandwidth.
func (ad *Adapter) Current() (units.BitRate, bool) {
	b, ok := ad.agent.Binding(ad.rank, ad.comm)
	if !ok {
		return 0, false
	}
	return b.Attr.Bandwidth, true
}
