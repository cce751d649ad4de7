package trafficgen

import (
	"errors"
	"fmt"
	"time"

	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
)

// stormWindowMax caps the adaptive clients' AIMD window.
const stormWindowMax = 32

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
	// Spec builds the i-th request (class mix, bandwidth, window).
	// Required.
	Spec func(i int) gara.Spec
	// Stop ends request generation (required; in-flight calls drain on
	// their own deadlines).
	Stop time.Duration

	k    *sim.Kernel
	mean float64 // mean open-loop gap, ns
	n    int     // request counter, shared by both halves
	// arrivals counts the open-loop arrivals started.
	arrivals int
	// free holds finished open-loop requests for reuse.
	free []*stormReq
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

// Run starts the storm: the open-loop arrivals and the closed-loop
// clients, all callbacks, so the storm holds no process. Arrivals and
// clients stop at Stop; calls in flight at that point drain on their
// own deadlines.
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
	s.k = k
	if s.Adaptive {
		s.limiters = make([][]*ctrlplane.Limiter, len(s.Conns))
		for i, cn := range s.Conns {
			s.limiters[i] = make([]*ctrlplane.Limiter, 3)
			for cl := range s.limiters[i] {
				s.limiters[i][cl] = ctrlplane.NewLimiter(k,
					fmt.Sprintf("%s/%d/%s", cn.Name(), i, gara.Class(cl)), 1, stormWindowMax)
			}
		}
	}
	if s.Rate > 0 {
		s.mean = float64(time.Second) / s.Rate
		// The first gap is drawn in an event of its own at this
		// instant, where a generator process's first step would run,
		// so that every later event keeps its place in the sequence.
		k.AtFunc(k.Now(), sim.PrioNormal, stormGap, s, nil)
	}
	for c := 0; c < s.Clients; c++ {
		s.newRequest(c%len(s.Conns), true).w.Wake()
	}
}

// stormGap schedules the next open-loop arrival an exponential gap
// from now.
func stormGap(a0, _ any) {
	s := a0.(*ReservationStorm)
	gap := time.Duration(s.k.RNG().ExpFloat64() * s.mean)
	if gap < time.Microsecond {
		gap = time.Microsecond
	}
	s.k.AfterFunc(gap, stormArrive, s, nil)
}

// stormArrive starts one open-loop arrival, spread round-robin over
// Conns, and schedules the next; past Stop it ends the generator.
func stormArrive(a0, _ any) {
	s := a0.(*ReservationStorm)
	if s.k.Now() >= s.Stop {
		return
	}
	s.newRequest(s.arrivals%len(s.Conns), false).w.Wake()
	s.arrivals++
	stormGap(s, nil)
}

// stormReq is one logical reservation request through conn ci, with
// up to Retries client-level re-submissions on retryable failures: a
// state machine driven by its waiter, which runs begin and then, while
// the request waits for its limiter, acquire. An open-loop arrival is
// recycled once its request ends; a closed-loop client is the same
// machine re-armed after Think.
type stormReq struct {
	s       *ReservationStorm
	w       *sim.Waiter
	onReply func(resID uint64, err error) // reply, bound once
	ci      int
	client  bool
	// acquiring is set while w waits for the limiter.
	acquiring bool
	spec      gara.Spec
	lim       *ctrlplane.Limiter
	attempt   int
	start     time.Duration
}

// newRequest takes a request from the freelist, or allocates one.
func (s *ReservationStorm) newRequest(ci int, client bool) *stormReq {
	var r *stormReq
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1], s.free = nil, s.free[:n-1]
	} else {
		r = &stormReq{s: s}
		r.w = s.k.NewWaiter(r.step)
		r.onReply = r.reply
	}
	r.ci, r.client = ci, client
	return r
}

// step is the request's waiter callback.
func (r *stormReq) step() {
	if r.acquiring {
		r.acquire()
		return
	}
	r.begin()
}

// begin starts a new logical request; a client past Stop stops.
func (r *stormReq) begin() {
	s := r.s
	if r.client && s.k.Now() >= s.Stop {
		return
	}
	r.spec = s.Spec(s.n)
	r.lim = nil
	if s.limiters != nil {
		r.lim = s.limiters[r.ci][r.spec.Class]
	}
	s.n++
	s.stats.Offered++
	s.stats.OfferedByClass[r.spec.Class]++
	r.attempt = 0
	r.acquire()
}

// acquire takes a limiter slot, waiting for one if need be, and sends
// the attempt.
func (r *stormReq) acquire() {
	s := r.s
	if r.lim != nil {
		r.acquiring = !r.lim.TryAcquire(r.w)
		if r.acquiring {
			return
		}
		// The window can hold a backlog of waiters far past Stop;
		// a request that never got to send its first attempt is
		// abandoned rather than issued into the drain tail.
		if r.attempt == 0 && s.k.Now() >= s.Stop {
			r.lim.Cancel()
			r.end()
			return
		}
	}
	r.start = s.k.Now()
	s.Conns[r.ci].Reserve(r.spec, r.onReply)
}

// reply takes an attempt's outcome: count it, adapt the limiter, and
// end the request or re-submit it.
func (r *stormReq) reply(_ uint64, err error) {
	s, now := r.s, r.s.k.Now()
	if err == nil {
		if r.lim != nil {
			r.lim.Release(true, false, 0)
		}
		if now <= s.Stop {
			s.stats.OK++
			s.stats.OKByClass[r.spec.Class]++
			s.stats.Latencies = append(s.stats.Latencies, now-r.start)
		}
		r.end()
		return
	}
	oe, overloaded := err.(*ctrlplane.OverloadedError)
	expired := errors.Is(err, ctrlplane.ErrDeadline)
	if r.lim != nil {
		var ra time.Duration
		if overloaded {
			ra = oe.RetryAfter
		}
		// Only congestion signals shrink the window. A definitive
		// refusal (policy, slot table full) is a healthy server
		// answering at full speed; halving on it would pin a
		// mostly-refused workload at the window floor and hide real
		// overload from the broker entirely.
		r.lim.Release(!overloaded && !expired, overloaded, ra)
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
		r.end()
		return
	}
	if r.attempt >= s.Retries || now >= s.Stop {
		r.end()
		return
	}
	// Naive clients turn right back around — this immediate retry
	// is what amplifies transient overload into a storm. Adaptive
	// clients are paced by the limiter's window and retry-after
	// hold instead.
	r.attempt++
	r.acquire()
}

// end finishes the logical request: a client thinks and then begins
// the next one, an arrival goes back to the freelist.
func (r *stormReq) end() {
	if r.client {
		r.w.WakeAfter(r.s.Think)
		return
	}
	r.spec, r.lim = gara.Spec{}, nil
	r.s.free = append(r.s.free, r)
}

// Stats returns the storm's client-side counters.
func (s *ReservationStorm) Stats() *StormStats { return &s.stats }
