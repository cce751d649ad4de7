package faults

import (
	"time"

	"mpichgq/internal/sim"
)

// RandomScenario builds a randomized chaos scenario over the given
// links: n fault cycles — link flaps, loss windows, corruption
// windows — placed in [0, horizon) and all repaired by horizon, so
// the network always ends healthy. Draws come from rng only, so a
// fixed seed replays the same scenario.
func RandomScenario(rng *sim.RNG, links []string, n int, horizon time.Duration) *Scenario {
	s := NewScenario("random")
	for i := 0; i < n; i++ {
		link := links[rng.Intn(len(links))]
		start := time.Duration(rng.Float64() * 0.7 * float64(horizon))
		dur := time.Duration((0.05 + 0.15*rng.Float64()) * float64(horizon))
		end := start + dur
		if end > horizon {
			end = horizon
		}
		switch rng.Intn(3) {
		case 0:
			s.Flap(link, start, end)
		case 1:
			s.Loss(link, start, end, 0.01+0.09*rng.Float64())
		case 2:
			s.Corrupt(link, start, end, 0.01+0.09*rng.Float64())
		}
	}
	return s
}
