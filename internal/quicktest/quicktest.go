// Package quicktest seeds testing/quick property checks so that a
// failure can be replayed. Each check draws a new seed from the clock,
// so the generated inputs still differ from run to run; a failing test
// logs its seed, and setting QUICK_SEED to it draws the same inputs
// again.
package quicktest

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// Config returns a quick.Config that runs maxCount cases (quick's
// default when 0) from a seed taken from QUICK_SEED when it is set,
// else from the clock, and logs the seed if t fails.
func Config(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("QUICK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("QUICK_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("testing/quick seed %d: rerun with QUICK_SEED=%d", seed, seed)
		}
	})
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
