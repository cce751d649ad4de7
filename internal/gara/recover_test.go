package gara

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// tableSnapshots captures every per-direction slot table of rm across
// the network's links, in canonical form.
func tableSnapshots(r *twoDomainRig, rm *NetworkRM) map[*netsim.Iface][]Slot {
	out := make(map[*netsim.Iface][]Slot)
	for _, l := range r.net.Links() {
		for _, ifc := range []*netsim.Iface{l.A(), l.B()} {
			if snap := rm.Table(ifc).Snapshot(); len(snap) > 0 {
				out[ifc] = snap
			}
		}
	}
	return out
}

func TestNetworkRMCrashRecoverRestoresSlotTables(t *testing.T) {
	r := newTwoDomains()
	r.rm1.Journal = NewJournal()
	r.rm1.Name = "dom1"

	res1, err := r.g1.Reserve(r.spec(10 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.g1.Reserve(r.spec(5 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	pre := tableSnapshots(r, r.rm1)
	if len(pre) == 0 {
		t.Fatal("expected booked tables before the crash")
	}
	seqBefore := r.rm1.Journal.LastSeq()

	r.rm1.Crash()
	if r.rm1.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("crash should wipe the slot tables")
	}
	if r.rm1.Enforcement(res1) != nil {
		t.Fatal("crash should drop enforcement state")
	}

	stats, err := r.rm1.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebooked != 2 {
		t.Fatalf("rebooked = %d, want 2", stats.Rebooked)
	}
	if stats.Reinstalled != 2 {
		t.Fatalf("reinstalled = %d, want 2 edge rules", stats.Reinstalled)
	}
	if stats.Reclaimed != 0 || stats.Dropped != 0 {
		t.Fatalf("unexpected reclaim/drop: %+v", stats)
	}
	post := tableSnapshots(r, r.rm1)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("recovered slot tables differ from pre-crash:\npre:  %v\npost: %v", pre, post)
	}
	if r.rm1.Enforcement(res1) == nil || r.rm1.Enforcement(res2) == nil {
		t.Fatal("recover should re-install edge enforcement")
	}
	// Recovery is itself journaled only for reclaims/drops; a clean
	// replay appends nothing.
	if got := r.rm1.Journal.LastSeq(); got != seqBefore {
		t.Fatalf("clean recovery should not grow the journal: %d -> %d", seqBefore, got)
	}
	// Asserted via metrics, per the acceptance criteria.
	reg := r.k.Metrics()
	if v, _ := reg.CounterValue("netrm_crashes_total", "rm", "dom1"); v != 1 {
		t.Fatalf("netrm_crashes_total = %d, want 1", v)
	}
	if v, _ := reg.CounterValue("netrm_recover_rebooked_total", "rm", "dom1"); v != 2 {
		t.Fatalf("netrm_recover_rebooked_total = %d, want 2", v)
	}
	if v, _ := reg.CounterValue("netrm_recover_reinstalled_total", "rm", "dom1"); v != 2 {
		t.Fatalf("netrm_recover_reinstalled_total = %d, want 2", v)
	}

	// Adopt re-links the handles so topology checks see them again.
	r.rm1.Adopt(res1)
	r.rm1.Adopt(res2)
	res1.Cancel()
	res2.Cancel()
	if r.rm1.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("cancel after recovery did not release capacity")
	}
}

// tableLevels captures, per direction, the committed level of rm's
// table at every slot boundary.
func tableLevels(r *twoDomainRig, rm *NetworkRM) map[*netsim.Iface][]float64 {
	out := make(map[*netsim.Iface][]float64)
	for ifc, snap := range tableSnapshots(r, rm) {
		st := rm.Table(ifc)
		for _, s := range snap {
			out[ifc] = append(out[ifc], st.CommittedAt(s.Start), st.CommittedAt(s.End))
		}
	}
	return out
}

// Property: a random book of a few hundred advance reservations in
// both directions, with modifies and cancels mixed in, survives
// Crash/Recover table for table: every direction gives the same
// snapshot and the same committed level at every slot boundary.
func TestNetworkRMJournalReplayProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTwoDomains()
		r.rm1.Journal = NewJournal()
		rng := sim.NewRNG(seed)
		rate := func() units.BitRate { return units.BitRate(50+rng.Intn(1501)) * units.Kbps }
		window := func(s *Spec) {
			s.Start = time.Duration(rng.Int63() % int64(time.Hour))
			s.Duration = time.Minute + time.Duration(rng.Int63()%int64(9*time.Minute))
		}
		var live []*Reservation
		for op := 0; op < 700; op++ {
			switch d := rng.Intn(10); {
			case d < 6 || len(live) == 0:
				s := r.spec(rate())
				if rng.Intn(2) == 0 {
					s.Flow = diffserv.MatchHostPair(r.hostB.Addr(), r.hostA.Addr(), netsim.ProtoUDP)
				}
				window(&s)
				if res, err := r.g1.Reserve(s); err == nil {
					live = append(live, res)
				}
			case d < 8:
				res := live[rng.Intn(len(live))]
				s := res.Spec()
				s.Bandwidth = rate()
				if rng.Intn(2) == 0 {
					window(&s)
				}
				res.Modify(s) // refusals leave the booking as it was
			default:
				i := rng.Intn(len(live))
				live[i].Cancel()
				live = append(live[:i], live[i+1:]...)
			}
		}
		pre, preLevels := tableSnapshots(r, r.rm1), tableLevels(r, r.rm1)
		r.rm1.Crash()
		stats, err := r.rm1.Recover()
		if err != nil || stats.Dropped != 0 || stats.Rebooked != len(live) {
			t.Logf("seed %d: recover %+v, %v; want %d rebooked", seed, stats, err, len(live))
			return false
		}
		if post := tableSnapshots(r, r.rm1); !reflect.DeepEqual(pre, post) {
			t.Logf("seed %d: recovered snapshots differ", seed)
			return false
		}
		if post := tableLevels(r, r.rm1); !reflect.DeepEqual(preLevels, post) {
			t.Logf("seed %d: recovered committed levels differ", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 20)); err != nil {
		t.Fatal(err)
	}
}

// The chaos acceptance test: a domain RM crashes mid-way through a
// two-domain reservation (after prepare, before commit) and the
// coordinator dies with it. No booked bandwidth may outlive the lease
// TTL, in either the crashed domain (journal recovery reconciles
// against the lease) or the surviving one (its own lease timer fires).
func TestMultiDomainCrashMidReserve(t *testing.T) {
	r := newTwoDomains()
	r.rm1.Name, r.rm2.Name = "dom1", "dom2"
	r.rm2.Journal = NewJournal()

	for _, g := range []*Gara{r.g1, r.g2} {
		if _, err := g.Prepare(r.spec(10*units.Mbps), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Domain 2 crashes mid-protocol; the coordinator never commits or
	// aborts (it "died" too — handles are simply abandoned).
	r.rm2.Crash()

	// Domain 2 restarts quickly and replays its journal: the prepared
	// booking is still inside its lease, so it is restored — with a
	// fresh reclaim timer.
	if err := r.k.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stats, err := r.rm2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebooked != 1 {
		t.Fatalf("rebooked = %d, want the in-lease prepared booking", stats.Rebooked)
	}
	if len(r.rm2.Leases()) != 1 {
		t.Fatal("recovered RM should track the outstanding lease")
	}

	// No commit ever arrives. After the TTL both domains must be clean.
	if err := r.k.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	now := r.k.Now()
	if u := r.rm1.Utilization(r.border, now); u != 0 {
		t.Fatalf("domain 1 leaked %.3f of border EF capacity", u)
	}
	for _, l := range r.net.Links() {
		if u := r.rm2.Utilization(l, now); u != 0 {
			t.Fatalf("domain 2 leaked %.3f on %s", u, l.Name())
		}
	}
	if len(r.rm2.Leases()) != 0 {
		t.Fatal("lease outlived its TTL")
	}
	// Every journaled booking ends in a release: replay folds to empty.
	for id, st := range r.rm2.Journal.replay() {
		if st.booked {
			t.Fatalf("journal still shows id %d booked after reclaim", id)
		}
	}
	if v, _ := r.k.Metrics().CounterValue("gara_leases_expired_total"); v == 0 {
		t.Fatal("surviving domain's lease should expire via the gara timer")
	}
}

// A crash that outlasts the lease: recovery must reclaim, not
// resurrect, the orphaned prepare.
func TestRecoverReclaimsExpiredLease(t *testing.T) {
	r := newTwoDomains()
	r.rm2.Name = "dom2"
	r.rm2.Journal = NewJournal()

	p, err := r.g2.Prepare(r.spec(10*units.Mbps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r.rm2.Crash()
	// Stay down past the lease. The gara-side expiry timer fires while
	// the RM is down (its Release is a no-op against wiped tables).
	if err := r.k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := r.rm2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reclaimed != 1 || stats.Rebooked != 0 {
		t.Fatalf("stats = %+v, want 1 reclaimed / 0 rebooked", stats)
	}
	for _, l := range r.net.Links() {
		if u := r.rm2.Utilization(l, r.k.Now()); u != 0 {
			t.Fatalf("expired lease resurrected on %s", l.Name())
		}
	}
	if v, _ := r.k.Metrics().CounterValue("netrm_recover_reclaimed_total", "rm", "dom2"); v != 1 {
		t.Fatalf("netrm_recover_reclaimed_total = %d, want 1", v)
	}
	_ = p
}
