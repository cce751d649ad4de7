package gara

import (
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
)

// Crash-recovery support for the NetworkRM. A resource manager with a
// Journal write-ahead logs every booking operation; Crash models the
// RM process dying (slot tables, enforcement rules, lease and session
// state all lost — the journal, standing in for disk, survives) and
// Recover replays the journal to rebuild the exact pre-crash booking
// set, re-install edge enforcement, and reconcile half-prepared
// bookings against lease expiry so an orphaned prepare cannot leak
// capacity across a crash.

// journal appends rec to the write-ahead log, if journaling is on.
func (rm *NetworkRM) journal(rec JournalRecord) {
	if rm.Journal != nil {
		rm.Journal.append(rec)
	}
}

// NoteLease implements LeaseNoter: record that id's booking is held
// under a prepare lease ending at leaseEnd.
func (rm *NetworkRM) NoteLease(id uint64, leaseEnd time.Duration) {
	rm.leases[id] = leaseEnd
	rm.journal(JournalRecord{Op: OpLease, ID: id, LeaseEnd: leaseEnd})
}

// NoteCommit implements LeaseNoter: id's lease became a durable
// booking.
func (rm *NetworkRM) NoteCommit(id uint64) {
	delete(rm.leases, id)
	rm.journal(JournalRecord{Op: OpCommit, ID: id})
}

// Leases returns a copy of the outstanding prepare leases (reservation
// id → absolute expiry). Inspection helper for gqctl and tests.
func (rm *NetworkRM) Leases() map[uint64]time.Duration {
	out := make(map[uint64]time.Duration, len(rm.leases))
	for id, end := range rm.leases {
		out[id] = end
	}
	return out
}

// Crash simulates the resource manager process dying: slot tables,
// installed enforcement rules, the active-reservation set, and lease
// tracking are all lost. The Journal — the stand-in for durable
// storage — survives, as does the netsim topology (routers keep
// forwarding; only the control state that *maintains* enforcement is
// gone, so the rules are torn down as the process's session state
// evaporates). Call Recover to rebuild.
func (rm *NetworkRM) Crash() {
	ids := make([]uint64, 0, len(rm.attach))
	for id := range rm.attach {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if att := rm.attach[id]; att.fr != nil {
			att.fr.Remove()
		}
	}
	rm.tables = make(map[*netsim.Iface]*SlotTable)
	rm.attach = make(map[uint64]*netAttachment)
	rm.leases = make(map[uint64]time.Duration)
	reg := rm.k.Metrics()
	reg.Counter("netrm_crashes_total",
		"simulated resource-manager crashes", "rm", rm.Name).Inc()
	reg.Events().Emit(metrics.EvCtrlCrash, rm.Name, 0, 0, 0)
}

// RecoverStats summarizes what a journal replay rebuilt.
type RecoverStats struct {
	// Rebooked: bookings re-inserted into the slot tables.
	Rebooked int
	// Reclaimed: uncommitted bookings whose lease had already expired,
	// released instead of rebooked.
	Reclaimed int
	// Reinstalled: edge enforcement rules re-installed.
	Reinstalled int
	// Dropped: bookings that could not be restored (window already
	// over, or no viable path after the crash) and were released.
	Dropped int
}

// Recover replays the write-ahead journal after a Crash: every booking
// the journal proves was live is re-inserted into the slot tables on
// the current routes, edge enforcement is re-installed for activated
// reservations, and uncommitted prepare leases are reconciled — an
// already-expired lease is reclaimed on the spot, a still-live one is
// rebooked with a fresh reclaim timer. Reservation handles held by
// callers are not re-linked: cancelling one still releases its
// booking by id. Ids are processed in order so recovery is
// deterministic.
func (rm *NetworkRM) Recover() (RecoverStats, error) {
	if rm.Journal == nil {
		return RecoverStats{}, fmt.Errorf("gara: %s has no journal to recover from", rm.Name)
	}
	now := rm.k.Now()
	// The releases journaled below recycle only the id in hand's
	// state, after it has been copied out.
	states := rm.Journal.replay()
	ids := make([]uint64, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var stats RecoverStats
	for _, id := range ids {
		st := *states[id]
		if !st.booked {
			continue // records for the id, but no booking
		}
		if st.leaseEnd > 0 && !st.committed && st.leaseEnd <= now {
			// Prepared but never committed, and the lease ran out while
			// the RM was down: reclaim rather than resurrect.
			stats.Reclaimed++
			rm.journal(JournalRecord{Op: OpRelease, ID: id})
			rm.k.Metrics().Events().Emit(metrics.EvCtrlLease, "reclaimed", int64(id), 0, 0)
			continue
		}
		if st.end <= now {
			// The reservation window ended during the outage.
			stats.Dropped++
			rm.journal(JournalRecord{Op: OpRelease, ID: id})
			continue
		}
		hops, edgeIngress, err := rm.path(nil, st.spec)
		if err == nil {
			err = rm.book(id, hops, st.start, st.end, st.spec.Bandwidth, "recovery")
		}
		if err != nil {
			// No viable path or capacity anymore; the booking cannot be
			// honored.
			stats.Dropped++
			rm.journal(JournalRecord{Op: OpRelease, ID: id})
			continue
		}
		stats.Rebooked++
		if st.leaseEnd > 0 && !st.committed {
			// Still-live prepare lease: restore it and re-arm the
			// reclaim timer the crash destroyed.
			rm.leases[id] = st.leaseEnd
			leaseID := id
			rm.k.At(st.leaseEnd, sim.PrioNormal, func() { rm.reclaimLease(leaseID) })
		}
		if st.activated {
			rm.install(id, nil, st.spec, hops, edgeIngress, st.edge)
			if st.edge {
				stats.Reinstalled++
			}
		}
	}
	reg := rm.k.Metrics()
	lbl := []string{"rm", rm.Name}
	reg.Counter("netrm_recover_rebooked_total",
		"bookings rebuilt from the journal after a crash", lbl...).Add(int64(stats.Rebooked))
	reg.Counter("netrm_recover_reclaimed_total",
		"expired prepare leases reclaimed during recovery", lbl...).Add(int64(stats.Reclaimed))
	reg.Counter("netrm_recover_reinstalled_total",
		"edge enforcement rules re-installed during recovery", lbl...).Add(int64(stats.Reinstalled))
	reg.Counter("netrm_recover_dropped_total",
		"journaled bookings unrecoverable (window over or path gone)", lbl...).Add(int64(stats.Dropped))
	reg.Events().Emit(metrics.EvCtrlRecover, rm.Name,
		int64(stats.Rebooked), int64(stats.Reclaimed), int64(stats.Reinstalled))
	return stats, nil
}

// reclaimLease is the recovery-armed lease timer callback: if id is
// still an uncommitted prepare when its lease ends, release its booked
// capacity. A commit (NoteCommit) or release in the meantime removes
// the lease entry and makes this a no-op.
func (rm *NetworkRM) reclaimLease(id uint64) {
	if _, live := rm.leases[id]; !live {
		return
	}
	// A live lease is booked: Recover arms this timer only for an id
	// it rebooked, and every release drops the lease.
	rm.unbook(id)
	reg := rm.k.Metrics()
	reg.Counter("netrm_leases_reclaimed_total",
		"prepare leases reclaimed by the RM's own timer", "rm", rm.Name).Inc()
	reg.Events().Emit(metrics.EvCtrlLease, "reclaimed", int64(id), 0, 0)
}

// ReleaseID releases a reservation by id alone — booking, lease, and
// enforcement — for cancels that outlived their handle (the handle
// died with a crashed server; journal recovery rebuilt the booking).
// It reports whether anything was booked.
func (rm *NetworkRM) ReleaseID(id uint64) bool {
	if att := rm.attach[id]; att != nil {
		if att.fr != nil {
			att.fr.Remove()
		}
		delete(rm.attach, id)
	}
	return rm.unbook(id)
}
