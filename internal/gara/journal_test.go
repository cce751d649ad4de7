package gara

import (
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// journalModel is the journal as a plain log: every record kept in a
// slice and folded from the start on each replay, with a released id
// left in the fold as a zero state. The folded Journal must read the
// same.
type journalModel struct {
	recs []JournalRecord
}

func (m *journalModel) append(rec JournalRecord) { m.recs = append(m.recs, rec) }

func (m *journalModel) lastSeq() uint64 { return uint64(len(m.recs)) }

func (m *journalModel) replay() map[uint64]*replayState {
	states := make(map[uint64]*replayState)
	for _, rec := range m.recs {
		st := states[rec.ID]
		if st == nil {
			st = &replayState{}
			states[rec.ID] = st
		}
		switch rec.Op {
		case OpBook:
			st.booked = true
			st.spec = rec.Spec
			st.start, st.end = rec.Start, rec.End
		case OpLease:
			st.leaseEnd = rec.LeaseEnd
		case OpCommit:
			st.committed = true
			st.leaseEnd = 0
		case OpActivate:
			st.activated = true
			st.edge = rec.Edge
		case OpDeactivate:
			st.activated = false
		case OpRelease:
			*st = replayState{}
		}
	}
	return states
}

// released reports whether id's newest record is a release.
func (m *journalModel) released(id uint64) bool {
	for i := len(m.recs) - 1; i >= 0; i-- {
		if m.recs[i].ID == id {
			return m.recs[i].Op == OpRelease
		}
	}
	return false
}

// journalRecords generates a record sequence in the shapes the
// NetworkRM writes: bookings and their Modify rebookings, a prepare's
// lease and its commit, activation and deactivation, releases, a
// released id booked again, and recovery's batch of releases over
// every booked id in id order. A small id space makes ids collide.
func journalRecords(rng *sim.RNG, n int) []JournalRecord {
	const ids = 12
	var recs []JournalRecord
	book := func(id uint64) JournalRecord {
		start := time.Duration(rng.Intn(3600)) * time.Second
		return JournalRecord{Op: OpBook, ID: id,
			Spec:  Spec{Type: ResourceNetwork, Class: Class(rng.Intn(3)), Bandwidth: units.BitRate(1+rng.Intn(100)) * units.Kbps},
			Start: start, End: start + time.Duration(1+rng.Intn(600))*time.Second}
	}
	booked := map[uint64]bool{}
	for len(recs) < n {
		id := uint64(1 + rng.Intn(ids))
		switch rng.Intn(9) {
		case 0, 1: // admission, or a Modify rebooking an id in place
			recs = append(recs, book(id))
			booked[id] = true
		case 2: // a prepare: booking, then its lease, maybe a commit
			recs = append(recs, book(id),
				JournalRecord{Op: OpLease, ID: id, LeaseEnd: time.Duration(1+rng.Intn(100)) * time.Second})
			if rng.Intn(2) == 0 {
				recs = append(recs, JournalRecord{Op: OpCommit, ID: id})
			}
			booked[id] = true
		case 3:
			recs = append(recs, JournalRecord{Op: OpActivate, ID: id, Edge: rng.Intn(2) == 0})
		case 4:
			recs = append(recs, JournalRecord{Op: OpDeactivate, ID: id})
		case 5: // stray lease or commit, with or without a booking
			if rng.Intn(2) == 0 {
				recs = append(recs, JournalRecord{Op: OpLease, ID: id, LeaseEnd: time.Duration(rng.Intn(100)) * time.Second})
			} else {
				recs = append(recs, JournalRecord{Op: OpCommit, ID: id})
			}
		case 6, 7: // release, then sometimes reuse of the id at once
			recs = append(recs, JournalRecord{Op: OpRelease, ID: id})
			delete(booked, id)
			if rng.Intn(3) == 0 {
				recs = append(recs, book(id))
				booked[id] = true
			}
		case 8: // recovery: releases a random share of the booked ids, in order
			for bid := uint64(1); bid <= ids; bid++ {
				if booked[bid] && rng.Intn(2) == 0 {
					recs = append(recs, JournalRecord{Op: OpRelease, ID: bid})
					delete(booked, bid)
				}
			}
		}
	}
	return recs
}

// TestJournalFoldDifferential feeds generated record sequences to the
// folded Journal and to journalModel, and after every record compares
// LastSeq and the whole replay: a released id must be absent from the
// fold, and every other id's state equal to the model's.
func TestJournalFoldDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		j, m := NewJournal(), &journalModel{}
		for i, rec := range journalRecords(rng, 50+rng.Intn(400)) {
			j.append(rec)
			m.append(rec)
			if j.LastSeq() != m.lastSeq() {
				t.Logf("seed %d, record %d: LastSeq %d, model %d", seed, i, j.LastSeq(), m.lastSeq())
				return false
			}
			got, want := j.replay(), m.replay()
			live := 0
			for id, ws := range want {
				gs, ok := got[id]
				if m.released(id) {
					if ok {
						t.Logf("seed %d, record %d: released id %d still folded as %+v", seed, i, id, gs)
						return false
					}
					continue
				}
				live++
				if !ok || *gs != *ws {
					t.Logf("seed %d, record %d (%v %d): id %d folds to %+v, model %+v",
						seed, i, rec.Op, rec.ID, id, gs, *ws)
					return false
				}
			}
			if len(got) != live {
				t.Logf("seed %d, record %d: fold holds %d ids, model %d live", seed, i, len(got), live)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 200)); err != nil {
		t.Fatal(err)
	}
}
