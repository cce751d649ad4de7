package gara

import "time"

// The reservation journal is the NetworkRM's write-ahead log: every
// state-changing operation (booking, lease, commit, activation,
// release) appends a record before the caller proceeds, so an RM that
// crashes with its slot tables in memory can rebuild them exactly by
// replay (NetworkRM.Recover). In this simulation the journal stands in
// for durable storage: NetworkRM.Crash wipes the RM's tables and
// enforcement state but leaves the journal intact, the same way a real
// broker loses its process memory but not its disk. It keeps no slice
// of records, only their fold (a compacted log): one state per id that
// has not been released, which is all a replay reads. LastSeq still
// counts every record, so a clean recovery still provably appends
// nothing.

// JournalOp discriminates journal records.
type JournalOp uint8

// Journal operations.
const (
	// OpBook: capacity was booked for ID over [Start, End) at
	// Spec.Bandwidth (admission, reattach, or a Modify rebooking —
	// the latest OpBook for an id wins on replay).
	OpBook JournalOp = iota + 1
	// OpLease: ID's booking is held under a prepare lease ending at
	// LeaseEnd.
	OpLease
	// OpCommit: ID's lease was converted into a durable booking.
	OpCommit
	// OpActivate: enforcement began for ID; Edge records whether an
	// edge classifier rule was installed (false for transit segments).
	OpActivate
	// OpDeactivate: enforcement ended for ID.
	OpDeactivate
	// OpRelease: ID's booking was removed.
	OpRelease
)

func (op JournalOp) String() string {
	switch op {
	case OpBook:
		return "book"
	case OpLease:
		return "lease"
	case OpCommit:
		return "commit"
	case OpActivate:
		return "activate"
	case OpDeactivate:
		return "deactivate"
	case OpRelease:
		return "release"
	default:
		return "unknown"
	}
}

// JournalRecord is one write-ahead log entry. Records carry plain
// data — everything Recover needs to rebuild slot tables and
// re-install enforcement — never live handles.
type JournalRecord struct {
	Op         JournalOp
	ID         uint64
	Spec       Spec          // OpBook: the booked specification
	Start, End time.Duration // OpBook: the booked window
	LeaseEnd   time.Duration // OpLease: absolute lease expiry
	Edge       bool          // OpActivate: an edge rule was installed
}

// Journal is an append-only reservation log with monotonic sequence
// numbers, kept folded: its memory grows with the live bookings, not
// with the records appended.
type Journal struct {
	// states are held by pointer: a map stores a value this large
	// out of line anyway, and a released state goes to free for the
	// next new id.
	states map[uint64]*replayState
	free   []*replayState
	seq    uint64
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{states: make(map[uint64]*replayState)} }

// replayState is the folded per-reservation state a journal replay
// produces.
type replayState struct {
	spec       Spec
	start, end time.Duration
	booked     bool
	leaseEnd   time.Duration // 0 = no live lease
	committed  bool
	activated  bool
	edge       bool
}

// append counts rec and folds it into its id's state. A release
// forgets the id: nothing before it can matter to a replay, and a
// later record for the id starts afresh.
func (j *Journal) append(rec JournalRecord) {
	j.seq++
	st := j.states[rec.ID]
	if rec.Op == OpRelease {
		if st != nil {
			delete(j.states, rec.ID)
			*st = replayState{}
			j.free = append(j.free, st)
		}
		return
	}
	if st == nil {
		if n := len(j.free); n > 0 {
			st, j.free = j.free[n-1], j.free[:n-1]
		} else {
			st = new(replayState)
		}
		j.states[rec.ID] = st
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
	}
}

// LastSeq returns the sequence number of the newest record (0 when
// empty).
func (j *Journal) LastSeq() uint64 { return j.seq }

// replay returns the per-id states (the exact booking set the RM held
// when the last record was written). Released ids are absent. The map
// and its states are the journal's own: later appends change them,
// and a released id's state is reused, so callers copy what they keep
// and modify nothing.
func (j *Journal) replay() map[uint64]*replayState { return j.states }
