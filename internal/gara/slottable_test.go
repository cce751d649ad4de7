package gara

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/quicktest"
	"mpichgq/internal/sim"
)

func TestSlotTableBasicAdmission(t *testing.T) {
	st := NewSlotTable(100)
	if err := st.Insert(1, 0, 10*time.Second, 60); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert(2, 0, 10*time.Second, 50); err == nil {
		t.Fatal("60+50 should exceed capacity 100")
	}
	if err := st.Insert(2, 0, 10*time.Second, 40); err != nil {
		t.Fatal(err)
	}
	if got := st.CommittedAt(5 * time.Second); got != 100 {
		t.Fatalf("committed = %v, want 100", got)
	}
}

func TestSlotTableNonOverlappingIntervals(t *testing.T) {
	st := NewSlotTable(100)
	if err := st.Insert(1, 0, 10*time.Second, 100); err != nil {
		t.Fatal(err)
	}
	// Disjoint interval: full capacity available again.
	if err := st.Insert(2, 10*time.Second, 20*time.Second, 100); err != nil {
		t.Fatal(err)
	}
	// Overlapping both: must fail.
	if err := st.Insert(3, 5*time.Second, 15*time.Second, 1); err == nil {
		t.Fatal("overlap should be rejected")
	}
}

func TestSlotTablePartialOverlapBoundaries(t *testing.T) {
	st := NewSlotTable(100)
	st.Insert(1, 5*time.Second, 10*time.Second, 80)
	// Candidate [0, 7s) overlaps [5s,10s): 30+80 > 100 at t=5s even
	// though t=0 is clear.
	if st.Available(0, 7*time.Second, 30) {
		t.Fatal("boundary-interior overload not detected")
	}
	if !st.Available(0, 5*time.Second, 30) {
		t.Fatal("[0,5s) should be admissible")
	}
}

func TestSlotTableRemove(t *testing.T) {
	st := NewSlotTable(100)
	st.Insert(1, 0, Forever, 70)
	if !st.Remove(1) {
		t.Fatal("remove existing should report true")
	}
	if st.Remove(1) {
		t.Fatal("double remove should report false")
	}
	if err := st.Insert(2, 0, Forever, 100); err != nil {
		t.Fatalf("capacity not freed: %v", err)
	}
}

func TestSlotTableUpdateRollsBack(t *testing.T) {
	st := NewSlotTable(100)
	st.Insert(1, 0, Forever, 50)
	st.Insert(2, 0, Forever, 40)
	// Growing id 2 to 60 exceeds capacity; original must survive.
	if err := st.Update(2, 0, Forever, 60); err == nil {
		t.Fatal("update should fail")
	}
	if got := st.CommittedAt(time.Second); got != 90 {
		t.Fatalf("committed after failed update = %v, want 90", got)
	}
	if err := st.Update(2, 0, Forever, 50); err != nil {
		t.Fatal(err)
	}
	if got := st.CommittedAt(time.Second); got != 100 {
		t.Fatalf("committed after update = %v, want 100", got)
	}
}

// Amounts like 0.1 and 0.2 do not sum exactly, so adding and taking
// them off the step function can leave a residue; an emptied table
// must still read zero everywhere.
func TestSlotTableEmptiedReadsZero(t *testing.T) {
	st := NewSlotTable(MaxCPUReservation)
	st.Insert(1, 0, 10*time.Second, 0.1)
	st.Insert(2, 0, 20*time.Second, 0.2)
	st.Remove(1)
	st.Remove(2)
	if got := st.CommittedAt(5 * time.Second); got != 0 || len(st.steps) != 0 {
		t.Fatalf("emptied table: committed %v over %d steps, want 0 over 0", got, len(st.steps))
	}
}

// naiveTable is the slot table as it was before the step function: a
// plain slot list, with every admission check summing the whole list
// at every boundary inside the window. It is the differential oracle
// for SlotTable.
type naiveTable struct {
	capacity float64
	slots    []slot
}

func (nt *naiveTable) committedAt(t time.Duration) float64 {
	sum := 0.0
	for _, s := range nt.slots {
		if s.start <= t && t < s.end {
			sum += s.amount
		}
	}
	return sum
}

func (nt *naiveTable) available(start, end time.Duration, amount float64) bool {
	if amount > nt.capacity {
		return false
	}
	if nt.committedAt(start)+amount > nt.capacity+1e-9 {
		return false
	}
	for _, s := range nt.slots {
		for _, edge := range []time.Duration{s.start, s.end} {
			if edge > start && edge < end && nt.committedAt(edge)+amount > nt.capacity+1e-9 {
				return false
			}
		}
	}
	return true
}

func (nt *naiveTable) insert(id uint64, start, end time.Duration, amount float64) bool {
	if end <= start || amount < 0 || !nt.available(start, end, amount) {
		return false
	}
	nt.slots = append(nt.slots, slot{id: id, start: start, end: end, amount: amount})
	return true
}

// keep deletes the slots keep rejects and returns them.
func (nt *naiveTable) keep(keep func(slot) bool) []slot {
	var kept, gone []slot
	for _, s := range nt.slots {
		if keep(s) {
			kept = append(kept, s)
		} else {
			gone = append(gone, s)
		}
	}
	nt.slots = kept
	return gone
}

func (nt *naiveTable) remove(id uint64) bool {
	return len(nt.keep(func(s slot) bool { return s.id != id })) > 0
}

func (nt *naiveTable) update(id uint64, start, end time.Duration, amount float64) bool {
	saved := nt.keep(func(s slot) bool { return s.id != id })
	if !nt.insert(id, start, end, amount) {
		nt.slots = append(nt.slots, saved...)
		return false
	}
	return true
}

// agree reports the first way st and the oracle differ, or "".
func agree(st *SlotTable, nt *naiveTable) string {
	if !slices.Equal(st.slots, nt.slots) {
		return fmt.Sprintf("slots %v, oracle %v", st.slots, nt.slots)
	}
	want := (&SlotTable{slots: nt.slots}).Snapshot()
	if got := st.Snapshot(); !slices.Equal(got, want) {
		return fmt.Sprintf("snapshot %v, oracle %v", got, want)
	}
	for _, s := range nt.slots {
		for _, t := range []time.Duration{s.start - 1, s.start, s.end - 1, s.end} {
			if got, want := st.CommittedAt(t), nt.committedAt(t); got != want {
				return fmt.Sprintf("CommittedAt(%v) = %v, oracle %v", t, got, want)
			}
		}
	}
	if len(st.steps) > 2*st.Len()+1 {
		return fmt.Sprintf("%d steps for %d slots", len(st.steps), st.Len())
	}
	return ""
}

// Property: random insert/update/remove/trim sequences never
// oversubscribe, and the step-function table matches the naive oracle
// after every operation: the same admit/refuse decisions, slots,
// snapshot and committed level at every boundary, and no more than
// 2n+1 steps. Amounts are integers or multiples of 1/64 (like CPU
// fractions), so every sum is exact in both tables.
func TestSlotTableNeverOversubscribedProperty(t *testing.T) {
	f := func(seed int64, dyadic bool) bool {
		rng := sim.NewRNG(seed)
		capacity, amount := 100.0, func() float64 { return float64(rng.Intn(61)) }
		if dyadic {
			capacity = MaxCPUReservation
			amount = func() float64 { return float64(rng.Intn(61)) / 64 }
		}
		st, nt := NewSlotTable(capacity), &naiveTable{capacity: capacity}
		window := func() (time.Duration, time.Duration) {
			start := time.Duration(rng.Intn(100)) * time.Second
			return start, start + time.Duration(rng.Intn(50)+1)*time.Second
		}
		var id uint64
		for op := 0; op < 200; op++ {
			// Ids past the newest are absent; a few inserts reuse an id.
			pick := uint64(rng.Intn(int(id)+3)) + 1
			start, end := window()
			amt := amount()
			var ok, want bool
			switch d := rng.Intn(20); {
			case d < 8:
				if rng.Intn(8) != 0 {
					id++
					pick = id
				}
				ok, want = st.Insert(pick, start, end, amt) == nil, nt.insert(pick, start, end, amt)
			case d < 12:
				ok, want = st.Update(pick, start, end, amt) == nil, nt.update(pick, start, end, amt)
			case d < 17:
				ok, want = st.Remove(pick), nt.remove(pick)
			default:
				ok, want = st.Available(start, end, amt), nt.available(start, end, amt)
			}
			if ok != want {
				t.Logf("seed %d op %d: decision %v, oracle %v", seed, op, ok, want)
				return false
			}
			if diff := agree(st, nt); diff != "" {
				t.Logf("seed %d op %d: %s", seed, op, diff)
				return false
			}
		}
		for probe := time.Duration(0); probe < 150*time.Second; probe += time.Second {
			if st.CommittedAt(probe) > capacity+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quicktest.Config(t, 100)); err != nil {
		t.Fatal(err)
	}
}
