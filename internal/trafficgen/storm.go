package trafficgen

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
)

// ReservationStorm slams a control-plane domain with reservation
// requests: seeded open-loop Poisson arrivals (demand that does not
// slow down when the broker does — the overload regime) plus
// closed-loop retrying clients (demand that comes back after every
// answer). The closed-loop half models the dangerous part of a real
// admission storm — MPICH-G2-style co-allocating jobs that retry on
// failure — in two temperaments: naive (retry immediately, amplifying
// the storm) and adaptive (AIMD in-flight window, honoring
// retry-after, the well-behaved client the overload controls assume).
type ReservationStorm struct {
	// Conns are the tenant stubs to spread arrivals across. Required.
	Conns []*ctrlplane.Conn
	// Rate is the open-loop mean arrival rate per second (Poisson;
	// 0 disables the open-loop half).
	Rate float64
	// Clients is the number of closed-loop clients (round-robin over
	// Conns; 0 disables the closed-loop half).
	Clients int
	// Adaptive switches clients from naive immediate retry to AIMD
	// adaptive concurrency with retry-after holds.
	Adaptive bool
	// Retries is how many times a client re-submits a failed request
	// (default 2). Retries re-enter the deadline-bounded call path, so
	// each retry is a fresh storm contribution.
	Retries int
	// Think is the closed-loop think time between requests (default
	// 50ms).
	Think time.Duration
	// WindowMax caps the adaptive clients' AIMD window (default 32).
	WindowMax float64
	// Spec builds the i-th request (class mix, bandwidth, window).
	// Required.
	Spec func(i int) gara.Spec
	// Stop ends request generation (required; in-flight calls drain on
	// their own deadlines).
	Stop time.Duration

	n int // arrival counter, shared by both halves
	// limiters is indexed [conn][class]: each class keeps its own AIMD
	// window, so brownout sheds aimed at best-effort traffic collapse
	// only the best-effort window while premium keeps flowing.
	limiters [][]*ctrlplane.Limiter
	stats    StormStats
}

// StormStats aggregates the storm's client-side view. All counts are
// whole logical requests (a deadline-bounded call with its internal
// RPC retries is one request; a client-level re-submission is
// another).
type StormStats struct {
	// Offered: requests initiated.
	Offered int
	// OK: requests answered with an admitted reservation before Stop
	// (completions in the drain tail are not counted, so rates over
	// the generation window are unbiased).
	OK int
	// OfferedByClass/OKByClass break the counts down by request class
	// (indexed by gara.Class), isolating how each class fares under
	// brownout.
	OfferedByClass, OKByClass [3]int
	// Overloads: requests that died with ErrOverloaded.
	Overloads int
	// Deadlines: requests that burned their whole call deadline.
	Deadlines int
	// Refused: server-side refusals (policy, no capacity) — final, not
	// retried.
	Refused int
	// Latencies holds each successful request's admission latency, in
	// completion order.
	Latencies []time.Duration
}

// Run spawns the storm's processes. Arrivals and clients stop at
// Stop; calls in flight at that point drain on their own deadlines.
func (s *ReservationStorm) Run(k *sim.Kernel) {
	if len(s.Conns) == 0 || s.Spec == nil || s.Stop <= 0 {
		panic("trafficgen: ReservationStorm needs Conns, Spec, and Stop")
	}
	if s.Retries == 0 {
		s.Retries = 2
	}
	if s.Think <= 0 {
		s.Think = 50 * time.Millisecond
	}
	if s.WindowMax <= 0 {
		s.WindowMax = 32
	}
	if s.Adaptive {
		s.limiters = make([][]*ctrlplane.Limiter, len(s.Conns))
		for i, cn := range s.Conns {
			s.limiters[i] = make([]*ctrlplane.Limiter, 3)
			for cl := range s.limiters[i] {
				s.limiters[i][cl] = ctrlplane.NewLimiter(k,
					fmt.Sprintf("%s/%d/%s", cn.Name(), i, gara.Class(cl)), 1, s.WindowMax)
			}
		}
	}
	if s.Rate > 0 {
		k.Spawn("storm-arrivals", func(ctx *sim.Ctx) {
			mean := float64(time.Second) / s.Rate
			for i := 0; ; i++ {
				gap := time.Duration(ctx.RNG().ExpFloat64() * mean)
				if gap < time.Microsecond {
					gap = time.Microsecond
				}
				ctx.Sleep(gap)
				if ctx.Now() >= s.Stop {
					return
				}
				ci := i % len(s.Conns)
				// One shared name: arrivals are many and short-lived,
				// and no output reads process names.
				ctx.SpawnChild("storm-arrival", func(cctx *sim.Ctx) {
					s.oneRequest(cctx, ci)
				})
			}
		})
	}
	for c := 0; c < s.Clients; c++ {
		ci := c % len(s.Conns)
		k.Spawn(fmt.Sprintf("storm-client-%d", c), func(ctx *sim.Ctx) {
			for ctx.Now() < s.Stop {
				s.oneRequest(ctx, ci)
				ctx.Sleep(s.Think)
			}
		})
	}
}

// oneRequest submits one logical reservation request through conn ci,
// with up to Retries client-level re-submissions on retryable
// failures.
func (s *ReservationStorm) oneRequest(ctx *sim.Ctx, ci int) {
	conn := s.Conns[ci]
	spec := s.Spec(s.n)
	var lim *ctrlplane.Limiter
	if s.limiters != nil {
		lim = s.limiters[ci][spec.Class]
	}
	s.n++
	s.stats.Offered++
	s.stats.OfferedByClass[spec.Class]++
	for attempt := 0; ; attempt++ {
		if lim != nil {
			lim.Acquire(ctx)
			// The window can hold a backlog of waiters far past Stop;
			// a request that never got to send its first attempt is
			// abandoned rather than issued into the drain tail.
			if attempt == 0 && ctx.Now() >= s.Stop {
				lim.Cancel()
				return
			}
		}
		start := ctx.Now()
		_, err := conn.Reserve(ctx, spec)
		if err == nil {
			if lim != nil {
				lim.Release(true, false, 0)
			}
			if ctx.Now() <= s.Stop {
				s.stats.OK++
				s.stats.OKByClass[spec.Class]++
				s.stats.Latencies = append(s.stats.Latencies, ctx.Now()-start)
			}
			return
		}
		var oe *ctrlplane.OverloadedError
		overloaded := errors.As(err, &oe)
		expired := errors.Is(err, ctrlplane.ErrDeadline)
		if lim != nil {
			var ra time.Duration
			if overloaded {
				ra = oe.RetryAfter
			}
			// Only congestion signals shrink the window. A definitive
			// refusal (policy, slot table full) is a healthy server
			// answering at full speed; halving on it would pin a
			// mostly-refused workload at the window floor and hide real
			// overload from the broker entirely.
			lim.Release(!overloaded && !expired, overloaded, ra)
		}
		switch {
		case overloaded:
			s.stats.Overloads++
		case expired:
			s.stats.Deadlines++
		default:
			// A definitive refusal (policy, slot table full): retrying
			// the identical spec cannot succeed.
			s.stats.Refused++
			return
		}
		if attempt >= s.Retries || ctx.Now() >= s.Stop {
			return
		}
		// Naive clients turn right back around — this immediate retry
		// is what amplifies transient overload into a storm. Adaptive
		// clients are paced by the limiter's window and retry-after
		// hold instead.
	}
}

// Stats returns the storm's client-side counters.
func (s *ReservationStorm) Stats() *StormStats { return &s.stats }
