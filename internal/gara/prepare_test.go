package gara

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/units"
)

func (r *twoDomainRig) borderEF() float64 {
	return r.rm1.Utilization(r.border, r.k.Now())
}

func TestPrepareCommitLifecycle(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != PrepareHeld {
		t.Fatalf("state = %v, want held", p.State())
	}
	// Capacity is booked during the hold, but nothing is enforced yet.
	if r.borderEF() == 0 {
		t.Fatal("prepare should book capacity")
	}
	if p.Reservation() != nil {
		t.Fatal("no reservation handle before commit")
	}
	res, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != StateActive {
		t.Fatalf("committed reservation state = %v, want active", res.State())
	}
	if r.rm1.Enforcement(res) == nil {
		t.Fatal("commit should install edge enforcement")
	}
	if p.Reservation() != res {
		t.Fatal("Reservation() should return the committed handle")
	}
	// A second commit is refused.
	if _, err := p.Commit(); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("second commit error = %v, want ErrNotPrepared", err)
	}
	res.Cancel()
	if r.borderEF() != 0 {
		t.Fatal("cancel did not release capacity")
	}
}

func TestPrepareLeaseExpiryReclaims(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.borderEF() == 0 {
		t.Fatal("prepare should book capacity")
	}
	// Never commit; run past the lease.
	if err := r.k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != PrepareExpired {
		t.Fatalf("state = %v, want expired", p.State())
	}
	if r.borderEF() != 0 {
		t.Fatal("expired lease left capacity booked")
	}
	if _, err := p.Commit(); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("commit after expiry error = %v, want ErrLeaseExpired", err)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_leases_expired_total"); v != 1 {
		t.Fatalf("gara_leases_expired_total = %d, want 1", v)
	}
}

func TestPrepareAbortIdempotent(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if p.State() != PrepareAborted {
		t.Fatalf("state = %v, want aborted", p.State())
	}
	if r.borderEF() != 0 {
		t.Fatal("abort did not release capacity")
	}
	p.Abort() // no-op
	// The cancelled lease timer must not reclaim anything later.
	if err := r.k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_prepare_aborts_total"); v != 1 {
		t.Fatalf("gara_prepare_aborts_total = %d, want 1", v)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_leases_expired_total"); v != 0 {
		t.Fatalf("aborted prepare must not also expire; expired = %d", v)
	}
}

func TestPrepareAdvanceReservationCommitsToPending(t *testing.T) {
	r := newTwoDomains()
	spec := r.spec(10 * units.Mbps)
	spec.Start = 5 * time.Second
	spec.Duration = 10 * time.Second
	p, err := r.g1.Prepare(spec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != StatePending {
		t.Fatalf("advance reservation state = %v, want pending", res.State())
	}
	if err := r.k.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.State() != StateActive {
		t.Fatalf("state at start time = %v, want active", res.State())
	}
	res.Cancel()
}

// Two-phase rollback must not leak when the refusing domain comes
// last: domain 1's prepared segment is aborted, and neither domain
// keeps a lease. Because rollback is an Abort of leased prepares, a
// rollback message that never lands is still reclaimed by lease expiry
// (exercised in TestMultiDomainCrashMidReserve).
func TestMultiDomainTwoPhaseRollbackReleasesLeases(t *testing.T) {
	r := newTwoDomains()
	// Fill domain 2's EF share (0.5 × 100 Mb/s on e2-hostB) so its
	// prepare refuses the next flow.
	if _, err := r.g2.Reserve(r.spec(45 * units.Mbps)); err != nil {
		t.Fatal(err)
	}
	p1, err := r.g1.Prepare(r.spec(10*units.Mbps), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.borderEF() == 0 {
		t.Fatal("domain 1's prepare did not book the border link")
	}
	if _, err := r.g2.Prepare(r.spec(10*units.Mbps), 0); err == nil {
		t.Fatal("downstream refusal expected")
	}
	p1.Abort()
	if r.borderEF() != 0 {
		t.Fatal("rollback left capacity booked in domain 1")
	}
	if len(r.rm1.Leases()) != 0 || len(r.rm2.Leases()) != 0 {
		t.Fatal("rollback left outstanding leases")
	}
	reg := r.k.Metrics()
	if v, _ := reg.CounterValue("gara_prepare_aborts_total"); v == 0 {
		t.Fatal("rollback should go through the abort path")
	}
}
