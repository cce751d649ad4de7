// Package diffserv implements the Differentiated Services mechanisms
// the paper's testbed configured on its Cisco 7500 routers with MQC:
//
//   - packet classifiers on router interfaces that determine the type
//     of service from the packet header (the flow 5-tuple),
//   - token-bucket policers/markers on the ingress ports of edge
//     routers, and
//   - strict priority queueing on egress ports, so that all packets
//     associated with reservations are sent before any other packets.
//
// Classifiers plug into netsim as ingress filters; the priority
// scheduler plugs in as an egress queue.
package diffserv

import (
	"fmt"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// TokenBucket is a classic token-bucket rate limiter. Tokens are
// denominated in bytes and accrue continuously at Rate up to Depth;
// a packet of n bytes conforms if n tokens are available.
//
// The paper's configuration rule (§4.3) sets
//
//	depth = bandwidth × delay
//
// with the testbed's ~2 ms delay suggesting bandwidth/62, relaxed in
// practice to bandwidth/40 ("normal") to allow for larger bursts, and
// bandwidth/4 ("large") in the burstiness study of §5.4.
type TokenBucket struct {
	k      *sim.Kernel
	rate   units.BitRate
	depth  units.ByteSize
	tokens float64 // bytes
	last   time.Duration
}

// NewTokenBucket returns a bucket that starts full.
func NewTokenBucket(k *sim.Kernel, rate units.BitRate, depth units.ByteSize) *TokenBucket {
	if rate < 0 || depth <= 0 {
		panic(fmt.Sprintf("diffserv: invalid token bucket rate=%v depth=%v", rate, depth))
	}
	return &TokenBucket{k: k, rate: rate, depth: depth, tokens: float64(depth), last: k.Now()}
}

// refill accrues tokens for the time elapsed since the last update.
func (tb *TokenBucket) refill() {
	now := tb.k.Now()
	if now > tb.last {
		tb.tokens += float64(tb.rate) * (now - tb.last).Seconds() / 8
		if tb.tokens > float64(tb.depth) {
			tb.tokens = float64(tb.depth)
		}
		tb.last = now
	}
}

// Conform consumes n bytes of tokens if available and reports whether
// the packet conforms to the profile.
func (tb *TokenBucket) Conform(n units.ByteSize) bool {
	tb.refill()
	if float64(n) <= tb.tokens {
		tb.tokens -= float64(n)
		return true
	}
	return false
}

// Rate returns the token fill rate.
func (tb *TokenBucket) Rate() units.BitRate { return tb.rate }

// Depth returns the bucket depth.
func (tb *TokenBucket) Depth() units.ByteSize { return tb.depth }

// SetRate changes the fill rate; accrued tokens are settled at the old
// rate first. GARA uses this to modify an active reservation in place.
func (tb *TokenBucket) SetRate(r units.BitRate) {
	if r < 0 {
		panic("diffserv: negative token bucket rate")
	}
	tb.refill()
	tb.rate = r
}

// SetDepth changes the bucket depth, clamping accrued tokens.
func (tb *TokenBucket) SetDepth(d units.ByteSize) {
	if d <= 0 {
		panic("diffserv: non-positive token bucket depth")
	}
	tb.refill()
	tb.depth = d
	if tb.tokens > float64(d) {
		tb.tokens = float64(d)
	}
}

// Bucket depth policies from the paper.
const (
	// NormalBucketDivisor gives the paper's default depth rule:
	// depth = bandwidth / 40 (in bytes once divided by 8 bits).
	NormalBucketDivisor = 40
	// LargeBucketDivisor gives the "large" bucket of §5.4:
	// depth = bandwidth / 4.
	LargeBucketDivisor = 4
	// RTTBucketDivisor is the bandwidth×delay rule for the testbed's
	// ~2 ms delay: depth = bandwidth / 62.
	RTTBucketDivisor = 62
)

// DepthForRate computes a bucket depth from a reserved rate using the
// paper's operational rule: depth in bytes is numerically
// bandwidth/divisor with bandwidth in bits per second.
//
// Note the units: §4.3 states "depth = bandwidth × delay" with depth
// in bytes, bandwidth in bits per second, and delay in seconds, and
// equates a 2 ms delay with bandwidth/62 — which only holds if the
// bits→bytes factor of 8 is *not* applied (1/62 ≈ 0.016 ≈ 2 ms × 8).
// The deployed buckets were therefore 8× larger than the physical
// bandwidth×delay product: bandwidth/40 bytes holds 200 ms of traffic
// at the reserved rate. Table 1 is only self-consistent under this
// reading (a 12.5 KB "normal" bucket for 500 Kb/s vs the 1 fps
// stream's 50 KB frames), so we reproduce it.
//
// A minimum of one 1500-byte packet is enforced so a conforming
// MTU-sized packet can always pass.
func DepthForRate(rate units.BitRate, divisor int) units.ByteSize {
	if divisor <= 0 {
		panic("diffserv: non-positive bucket divisor")
	}
	d := units.ByteSize(float64(rate) / float64(divisor))
	if d < 1500 {
		d = 1500
	}
	return d
}
