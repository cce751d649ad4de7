// Package gara implements the General-purpose Architecture for
// Reservation and Allocation: flow-specific QoS specification, secure
// immediate and advance co-reservation, online monitoring and control,
// and policy-driven management of multiple resource types (networks,
// CPUs, storage) behind one uniform reservation API.
//
// The implementation follows §4.2 of the paper: a resource manager
// "uses a slot table to keep track of reservations and invokes
// resource-specific operations to enforce reservations. Requests ...
// result in calls to functions that add, modify, or delete slot table
// entries; timer-based callbacks generate call-outs to
// resource-specific routines to enable and cancel reservations."
package gara

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Forever marks a reservation with no scheduled end.
const Forever = time.Duration(1<<62 - 1)

// slot is one admitted reservation interval on a capacity timeline.
type slot struct {
	id         uint64
	start, end time.Duration
	amount     float64
}

// step is one piece of the committed-capacity step function: level is
// the total committed from at until the next step's at.
type step struct {
	at    time.Duration
	level float64
}

// SlotTable tracks capacity commitments over time for one resource.
// The invariant it enforces: at every instant, the sum of admitted
// amounts never exceeds Capacity.
//
// Next to the slot list the table keeps the committed total as a step
// function: steps sorted by time, zero before the first, with no step
// repeating the level before it, so there are at most two per slot.
// CommittedAt is a binary search; Available is a binary search plus a
// scan of the k steps inside the window, O(log n + k). Insert, Remove
// and Update split the steps at the slot's start and end
// and add or subtract its amount in between, O(n) at worst for the
// slice shifts. The levels are kept by adding and subtracting amounts,
// so they equal the sums of the slots exactly when those sums are
// exact in float64 (integer rates, dyadic fractions); otherwise they
// may differ by rounding, far inside the 1e-9 admission slack.
type SlotTable struct {
	capacity float64
	slots    []slot
	steps    []step
}

// NewSlotTable returns a table with the given total capacity.
func NewSlotTable(capacity float64) *SlotTable {
	if capacity < 0 {
		panic("gara: negative slot table capacity")
	}
	return &SlotTable{capacity: capacity}
}

// Capacity returns the table's total capacity.
func (st *SlotTable) Capacity() float64 { return st.capacity }

// after returns the index of the first step later than t.
func (st *SlotTable) after(t time.Duration) int {
	lo, hi := 0, len(st.steps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if st.steps[m].at <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// levelBefore returns the level in force just before step i.
func (st *SlotTable) levelBefore(i int) float64 {
	if i == 0 {
		return 0
	}
	return st.steps[i-1].level
}

// CommittedAt returns the total amount committed at instant t.
func (st *SlotTable) CommittedAt(t time.Duration) float64 {
	return st.levelBefore(st.after(t))
}

// Available reports whether amount can be admitted over [start, end).
func (st *SlotTable) Available(start, end time.Duration, amount float64) bool {
	if amount > st.capacity {
		return false
	}
	// The peak commitment over the window is the level at start or at
	// one of the steps inside it.
	i := st.after(start)
	peak := st.levelBefore(i)
	for ; i < len(st.steps) && st.steps[i].at < end; i++ {
		peak = max(peak, st.steps[i].level)
	}
	return peak+amount <= st.capacity+1e-9
}

// Insert admits amount over [start, end) under id. It fails if the
// interval is invalid or capacity would be exceeded.
func (st *SlotTable) Insert(id uint64, start, end time.Duration, amount float64) error {
	if end <= start {
		return fmt.Errorf("gara: empty slot interval [%v, %v)", start, end)
	}
	if amount < 0 {
		return fmt.Errorf("gara: negative slot amount %v", amount)
	}
	if !st.Available(start, end, amount) {
		return fmt.Errorf("gara: slot table full: %v over [%v, %v) exceeds capacity %v",
			amount, start, end, st.capacity)
	}
	st.slots = append(st.slots, slot{id: id, start: start, end: end, amount: amount})
	st.add(start, end, amount)
	return nil
}

// add raises the step function by amount over [start, end).
func (st *SlotTable) add(start, end time.Duration, amount float64) {
	if amount == 0 {
		return
	}
	i, j := st.split(start), st.split(end)
	for k := i; k < j; k++ {
		st.steps[k].level += amount
	}
	// Only the two ends can now repeat the level before them; drop j
	// first so that i still indexes its step.
	st.merge(j)
	st.merge(i)
}

// split makes sure a step starts at t and returns its index.
func (st *SlotTable) split(t time.Duration) int {
	i := st.after(t)
	if i > 0 && st.steps[i-1].at == t {
		return i - 1
	}
	st.steps = slices.Insert(st.steps, i, step{at: t, level: st.levelBefore(i)})
	return i
}

// merge drops step i if its level repeats the one before it.
func (st *SlotTable) merge(i int) {
	if st.steps[i].level == st.levelBefore(i) {
		st.steps = slices.Delete(st.steps, i, i+1)
	}
}

// cut deletes slot i, which drop reports, and every later slot drop
// reports, keeping the order of the rest, and takes their amounts off
// the step function.
func (st *SlotTable) cut(i int, drop func(slot) bool) {
	kept := st.slots[:i]
	for _, s := range st.slots[i:] {
		if drop(s) {
			st.add(s.start, s.end, -s.amount)
			continue
		}
		kept = append(kept, s)
	}
	st.slots = kept
	if len(kept) == 0 {
		// Clears any rounding residue left by amounts whose sums are
		// not exact.
		st.steps = st.steps[:0]
	}
}

// Remove deletes all slots with the given id; it reports whether any
// existed. A table without id is only read: NetworkRM.Release asks
// every table.
func (st *SlotTable) Remove(id uint64) bool {
	for i := range st.slots {
		if st.slots[i].id == id {
			st.cut(i, func(s slot) bool { return s.id == id })
			return true
		}
	}
	return false
}

// Update atomically replaces id's slots with a new (start, end,
// amount); on admission failure the original slots are restored.
func (st *SlotTable) Update(id uint64, start, end time.Duration, amount float64) error {
	var one [1]slot // an id has one slot unless Insert reused it
	saved := one[:0]
	for _, s := range st.slots {
		if s.id == id {
			saved = append(saved, s)
		}
	}
	st.Remove(id)
	if err := st.Insert(id, start, end, amount); err != nil {
		for _, s := range saved {
			st.slots = append(st.slots, s)
			st.add(s.start, s.end, s.amount)
		}
		return err
	}
	return nil
}

// Len returns the number of live slots.
func (st *SlotTable) Len() int { return len(st.slots) }

// Slot is an exported view of one admitted interval, as returned by
// Snapshot.
type Slot struct {
	ID         uint64
	Start, End time.Duration
	Amount     float64
}

// Snapshot returns the live slots sorted by (ID, Start) — a canonical
// form two tables can be compared in, regardless of insertion order
// (used by crash-recovery tests to assert a rebuilt table matches the
// original).
func (st *SlotTable) Snapshot() []Slot {
	out := make([]Slot, 0, len(st.slots))
	for _, s := range st.slots {
		out = append(out, Slot{ID: s.id, Start: s.start, End: s.end, Amount: s.amount})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Start < out[j].Start
	})
	return out
}
