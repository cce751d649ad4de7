package gara

import "time"

// The reservation journal is the NetworkRM's write-ahead log: every
// state-changing operation (booking, lease, commit, activation,
// release) appends a record before the caller proceeds, so an RM that
// crashes with its slot tables in memory can rebuild them exactly by
// replay (NetworkRM.Recover). In this simulation the journal is an
// in-memory slice standing in for durable storage: NetworkRM.Crash
// wipes the RM's tables and enforcement state but leaves the journal
// intact, the same way a real broker loses its process memory but not
// its disk.

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
	Seq        uint64
	Op         JournalOp
	ID         uint64
	Spec       Spec          // OpBook: the booked specification
	Start, End time.Duration // OpBook: the booked window
	LeaseEnd   time.Duration // OpLease: absolute lease expiry
	Edge       bool          // OpActivate: an edge rule was installed
}

// Journal is an append-only reservation log with monotonic sequence
// numbers.
type Journal struct {
	recs []JournalRecord
	seq  uint64
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// append stamps rec with the next sequence number and stores it.
func (j *Journal) append(rec JournalRecord) uint64 {
	j.seq++
	rec.Seq = j.seq
	j.recs = append(j.recs, rec)
	return rec.Seq
}

// LastSeq returns the sequence number of the newest record (0 when
// empty).
func (j *Journal) LastSeq() uint64 { return j.seq }

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

// replay folds the log into per-id states (the exact booking set the
// RM held when the last record was written).
func (j *Journal) replay() map[uint64]*replayState {
	states := make(map[uint64]*replayState)
	get := func(id uint64) *replayState {
		st := states[id]
		if st == nil {
			st = &replayState{}
			states[id] = st
		}
		return st
	}
	for _, rec := range j.recs {
		st := get(rec.ID)
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
