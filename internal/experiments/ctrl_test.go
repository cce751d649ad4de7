package experiments

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mpichgq/internal/sim"
)

// runCtrl runs the ctrl scenario for dur on a fresh kernel and returns
// the kernel, the handle and the registry's Prometheus text.
func runCtrl(t *testing.T, seed int64, dur time.Duration) (*sim.Kernel, *Ctrl, string) {
	t.Helper()
	k := sim.New(seed)
	t.Cleanup(k.Close)
	c := StartCtrl(k, dur)
	if err := k.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := k.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return k, c, buf.String()
}

// TestCtrlScenarioChaos pins the scenario behind `gqd -scenario ctrl`
// and `gqctl ctrl` over a short horizon (the crash lands at 2 s, the
// restart at 2.5 s): both domains exist, the driver attempts
// co-reservations, the storm offers requests, and dom1's broker serves
// some. Two runs at one seed export identical metrics.
func TestCtrlScenarioChaos(t *testing.T) {
	const dur = 5 * time.Second
	k, c, prom := runCtrl(t, 1, dur)
	if names := c.Plane.Names(); !slices.Equal(names, []string{"dom1", "dom2"}) {
		t.Fatalf("plane domains = %v, want [dom1 dom2]", names)
	}
	for _, name := range []string{"dom1", "dom2"} {
		if c.RMs[name] == nil {
			t.Errorf("no RM for %s", name)
		}
	}
	if c.OK+c.Failed == 0 {
		t.Error("the driver attempted no co-reservation")
	}
	if st := c.Storm.Stats(); st.Offered == 0 {
		t.Error("the storm offered no request")
	}
	if v, _ := k.Metrics().CounterValue("admission_served_total", "rm", "dom1"); v == 0 {
		t.Error(`admission_served_total{rm="dom1"} = 0 under the storm`)
	}
	if _, _, again := runCtrl(t, 1, dur); again != prom {
		t.Error("two runs at seed 1 exported different Prometheus text")
	}
}
