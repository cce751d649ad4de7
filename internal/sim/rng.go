package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). It is not safe for concurrent use, which is fine: the
// kernel admits one runner at a time.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	r := &RNG{state: uint64(seed)}
	// Avoid the all-zero state producing a weak start.
	r.state += 0x9e3779b97f4a7c15
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Jitter returns a uniform float64 in [1-f, 1+f], useful for
// perturbing periodic behaviour.
func (r *RNG) Jitter(f float64) float64 {
	return 1 - f + 2*f*r.Float64()
}
