package main

import (
	"fmt"
	"time"

	"mpichgq/internal/experiments"
	"mpichgq/internal/garnet"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// traceCapacity sizes the daemon kernel's completed-span ring: the
// daemon exists to serve trace queries, so it retains more than the
// tracer default.
const traceCapacity = 1 << 16

// buildScenario constructs the requested live scenario on a fresh
// kernel, tracing enabled, ready to be stepped to dur. The returned
// extras hook (may be nil) adds scenario-specific health fields to
// /healthz; it is called under the daemon's kernel mutex.
func buildScenario(name string, seed int64, dur time.Duration) (*sim.Kernel, func(map[string]any), error) {
	switch name {
	case "fig5":
		return fig5Scenario(seed, dur), nil, nil
	case "ctrl":
		k, extras := ctrlScenario(seed, dur)
		return k, extras, nil
	default:
		return nil, nil, fmt.Errorf("gqd: unknown scenario %q (want fig5 or ctrl)", name)
	}
}

// fig5Scenario is one Figure 5 point, live: an MPI ping-pong of 40 Kb
// messages with an 8 Mb/s premium reservation on the GARNET testbed
// under heavy UDP contention. It exercises GARA admission, diffserv
// policing, and the TCP stack, so /metrics shows live throughput and
// /traces carries gara.* and tcp.* spans.
func fig5Scenario(seed int64, dur time.Duration) *sim.Kernel {
	tb := garnet.New(seed)
	tb.K.Tracer().SetCapacity(traceCapacity)
	tb.K.Tracer().SetEnabled(true)
	experiments.StartPingPong(experiments.Config{}, tb, 40*units.Kbit, 8*units.Mbps, true, dur)
	return tb.K
}

// ctrlScenario is the figure G control plane, live
// (experiments.StartCtrl): two administrative domains behind a lossy
// control channel, an RM crash/restart, a co-reservation driver for
// the whole run, and a tenant reservation storm pressing dom1's
// admission queue so queue depth, sheds, and brownout transitions stay
// visible in /metrics and /healthz. It keeps the co.*, rpc.*,
// server.*, gara.*, admission.*, and fault.* span streams flowing for
// /traces queries.
func ctrlScenario(seed int64, dur time.Duration) (*sim.Kernel, func(map[string]any)) {
	k := sim.New(seed)
	k.Tracer().SetCapacity(traceCapacity)
	k.Tracer().SetEnabled(true)
	plane := experiments.StartCtrl(k, dur).Plane
	srv1, srv2 := plane.Conn("dom1").Server(), plane.Conn("dom2").Server()
	extras := func(resp map[string]any) {
		resp["admission"] = map[string]any{
			"dom1": map[string]int{"queue_depth": srv1.QueueDepth(), "brownout_level": srv1.BrownoutLevel()},
			"dom2": map[string]int{"queue_depth": srv2.QueueDepth(), "brownout_level": srv2.BrownoutLevel()},
		}
	}
	return k, extras
}
