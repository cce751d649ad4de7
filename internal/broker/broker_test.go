package broker

import (
	"strings"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/dsrt"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/netsim"
	"mpichgq/internal/units"
)

func netSpec(tb *garnet.Testbed, bw units.BitRate) gara.Spec {
	return gara.Spec{
		Type:      gara.ResourceNetwork,
		Flow:      diffserv.MatchHostPair(tb.PremSrc.Addr(), tb.PremDst.Addr(), netsim.ProtoTCP),
		Bandwidth: bw,
		Duration:  time.Minute,
	}
}

func TestBandwidthQuota(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{MaxBandwidth: 10 * units.Mbps, MaxDuration: time.Hour})
	if _, err := b.Request("alice", netSpec(tb, 6*units.Mbps)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("alice", netSpec(tb, 6*units.Mbps)); err == nil {
		t.Fatal("6+6 over a 10 Mb/s quota should be denied")
	}
	if _, err := b.Request("alice", netSpec(tb, 4*units.Mbps)); err != nil {
		t.Fatalf("6+4 should fit the quota: %v", err)
	}
	// Quotas are per principal.
	if _, err := b.Request("bob", netSpec(tb, 10*units.Mbps)); err != nil {
		t.Fatalf("bob has his own quota: %v", err)
	}
	bw, _ := b.Usage("alice")
	if bw != 10*units.Mbps {
		t.Fatalf("alice usage = %v, want 10 Mb/s", bw)
	}
}

func TestDurationAndAdvanceLimits(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{
		MaxBandwidth: 100 * units.Mbps,
		MaxDuration:  10 * time.Minute,
		MaxAdvance:   time.Hour,
	})
	spec := netSpec(tb, units.Mbps)
	spec.Duration = time.Hour
	if _, err := b.Request("alice", spec); err == nil {
		t.Fatal("over-long reservation should be denied")
	}
	spec.Duration = 0 // indefinite
	if _, err := b.Request("alice", spec); err == nil {
		t.Fatal("indefinite reservation should be denied under a duration cap")
	}
	spec.Duration = 5 * time.Minute
	spec.Start = 2 * time.Hour
	if _, err := b.Request("alice", spec); err == nil {
		t.Fatal("too-far-advance reservation should be denied")
	}
	spec.Start = 30 * time.Minute
	if _, err := b.Request("alice", spec); err != nil {
		t.Fatalf("in-horizon advance reservation should pass: %v", err)
	}
}

func TestCancelFreesQuota(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{MaxBandwidth: 10 * units.Mbps, MaxDuration: time.Hour})
	r, err := b.Request("alice", netSpec(tb, 10*units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("alice", netSpec(tb, units.Mbps)); err == nil {
		t.Fatal("quota full")
	}
	r.Cancel()
	if _, err := b.Request("alice", netSpec(tb, 10*units.Mbps)); err != nil {
		t.Fatalf("quota not freed by cancel: %v", err)
	}
}

func TestExpiryFreesQuota(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{MaxBandwidth: 10 * units.Mbps, MaxDuration: time.Hour})
	spec := netSpec(tb, 10*units.Mbps)
	spec.Duration = 10 * time.Second
	if _, err := b.Request("alice", spec); err != nil {
		t.Fatal(err)
	}
	tb.K.RunUntil(11 * time.Second)
	if _, err := b.Request("alice", netSpec(tb, 10*units.Mbps)); err != nil {
		t.Fatalf("quota not freed by expiry: %v", err)
	}
}

func TestCPUQuota(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{MaxCPUFraction: 0.8, MaxDuration: time.Hour})
	host := garnetCPUTask(tb)
	spec := gara.Spec{Type: gara.ResourceCPU, Task: host, Fraction: 0.5, Duration: time.Minute}
	if _, err := b.Request("alice", spec); err != nil {
		t.Fatal(err)
	}
	spec.Fraction = 0.4
	if _, err := b.Request("alice", spec); err == nil {
		t.Fatal("0.5+0.4 over a 0.8 CPU quota should be denied")
	}
}

func TestDecisionLog(t *testing.T) {
	tb := garnet.New(1)
	b := New(tb.Gara, Policy{MaxBandwidth: 10 * units.Mbps, MaxDuration: time.Hour})
	b.Request("alice", netSpec(tb, 6*units.Mbps))
	b.Request("alice", netSpec(tb, 6*units.Mbps)) // denied
	log := b.Decisions()
	if len(log) != 2 {
		t.Fatalf("log entries = %d, want 2", len(log))
	}
	if !log[0].Granted || log[1].Granted {
		t.Fatalf("log = %+v", log)
	}
	if log[1].Reason == "" {
		t.Fatal("denial should carry a reason")
	}
}

// Quota reconciliation: a degraded reservation (fault on the reserved
// path) holds no capacity, so its quota is released while it stays
// tracked for repair; a repaired handle is charged again; a handle
// cancelled behind the broker's back (crash recovery) is pruned.
func TestReconcileReleasesDegradedAndRecoveredQuota(t *testing.T) {
	tb := garnet.New(1)
	faults.NewScenario("flap").Flap("edge1-core", time.Second, 5*time.Second).MustApply(tb.Net, faults.Targets{})
	b := New(tb.Gara, Policy{MaxBandwidth: 10 * units.Mbps, MaxDuration: time.Hour})
	r, err := b.Request("alice", netSpec(tb, 10*units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if bw, _ := b.Usage("alice"); bw != 10*units.Mbps {
		t.Fatalf("usage = %v, want 10 Mb/s", bw)
	}

	// Fault degrades the reservation: quota released, handle retained.
	tb.K.RunUntil(2 * time.Second)
	if r.State() != gara.StateDegraded {
		t.Fatalf("state = %v, want degraded after the link fault", r.State())
	}
	if bw, _ := b.Usage("alice"); bw != 0 {
		t.Fatalf("degraded usage = %v, want 0 (quota released)", bw)
	}
	if n, ok := tb.K.Metrics().CounterValue("broker_quota_released_total"); !ok || n != 1 {
		t.Fatalf("broker_quota_released_total = %d (ok=%v), want 1", n, ok)
	}
	found := false
	for _, d := range b.Decisions() {
		if d.Who == "alice" && !d.Granted && strings.Contains(d.Reason, "reconciled") {
			found = true
		}
	}
	if !found {
		t.Fatal("no reconciliation entry in the audit log")
	}

	// Link returns; repair re-charges the principal — the broker must
	// still be tracking the handle.
	tb.K.RunUntil(6 * time.Second)
	if err := r.Reattach(); err != nil {
		t.Fatal(err)
	}
	if bw, _ := b.Usage("alice"); bw != 10*units.Mbps {
		t.Fatalf("post-repair usage = %v, want 10 Mb/s (handle lost by reconciliation?)", bw)
	}

	// A recovery pass cancels the reservation without telling the
	// broker; the next Usage notices, releases the quota, prunes the
	// handle.
	r.Cancel()
	b.Usage("alice")
	if n, _ := tb.K.Metrics().CounterValue("broker_quota_released_total"); n != 2 {
		t.Fatalf("broker_quota_released_total = %d, want 2", n)
	}
	if bw, _ := b.Usage("alice"); bw != 0 {
		t.Fatalf("post-cancel usage = %v, want 0", bw)
	}
	if _, err := b.Request("alice", netSpec(tb, 10*units.Mbps)); err != nil {
		t.Fatalf("quota not freed for a new reservation: %v", err)
	}
}

// garnetCPUTask gives the broker tests a DSRT task bound to a CPU.
func garnetCPUTask(tb *garnet.Testbed) *dsrt.Task {
	return dsrt.NewCPU(tb.K, "host").NewTask("app")
}
