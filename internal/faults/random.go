package faults

import (
	"math"
	"time"

	"mpichgq/internal/sim"
)

// RankMTBF builds a randomized rank-failure scenario: each named rank
// fails at exponentially distributed intervals with the given mean
// time between failures, and restarts repair later. Failures whose
// repair would land past horizon are not scheduled, so the job always
// ends with every scheduled crash repaired. Draws come from rng only,
// so a fixed seed replays the same failure schedule. Apply with
// Scenario.ApplyTargets and a RankResolver (an mpi.Job).
func RankMTBF(rng *sim.RNG, ranks []string, mtbf, repair, horizon time.Duration) *Scenario {
	s := NewScenario("rank-mtbf")
	if mtbf <= 0 {
		return s
	}
	for _, rank := range ranks {
		t := time.Duration(0)
		for {
			// Exponential inter-failure gap with mean mtbf. 1-U keeps the
			// argument in (0,1].
			gap := time.Duration(-float64(mtbf) * math.Log(1-rng.Float64()))
			t += gap
			if t+repair >= horizon {
				break
			}
			s.RankCrash(t, rank)
			s.RankRestart(t+repair, rank)
			t += repair
		}
	}
	return s
}
