package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestFigure5CloseLeavesNoGoroutines: every Figure 5 point closes its
// testbed, so a finished sweep leaves no parked process behind. The
// first sweep fills the shared pool of idle process coroutines, which
// the second then reuses.
func TestFigure5CloseLeavesNoGoroutines(t *testing.T) {
	RunFigure5(QuickConfig())
	base := runtime.NumGoroutine()
	RunFigure5(QuickConfig())
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond) // sweep workers winding down
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after a second RunFigure5, %d after the first", n, base)
	}
}
