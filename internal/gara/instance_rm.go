package gara

import (
	"fmt"
	"time"
)

// InstanceRM is GARA's resource manager for resources that book one
// scalar amount on one resource instance: a CPU share on a DSRT
// processor (NewCPURM) or a read rate on a DPSS server
// (NewStorageRM). Advance bookings live in a slot table per instance;
// the resource type's instanceKind supplies the rest.
type InstanceRM struct {
	kind   instanceKind
	tables map[any]*SlotTable
}

// An instanceKind is the per-type half of an InstanceRM.
type instanceKind interface {
	resourceType() ResourceType
	// instance returns the resource instance spec books on and its
	// capacity, or an error when spec names none.
	instance(spec Spec) (key any, capacity float64, err error)
	// amount returns what spec books, or an error when it is out of
	// range.
	amount(spec Spec) (float64, error)
	// sameOwner refuses a Modify from old to spec that changes the
	// owner of the booking.
	sameOwner(old, spec Spec) error
	// activate installs enforcement for r, retune changes it to spec,
	// and deactivate removes it. A failed retune leaves enforcement
	// as it was.
	activate(r *Reservation) error
	retune(r *Reservation, spec Spec) error
	deactivate(r *Reservation)
}

// Type implements ResourceManager.
func (rm *InstanceRM) Type() ResourceType { return rm.kind.resourceType() }

// table returns the slot table spec books in and the amount it books.
func (rm *InstanceRM) table(spec Spec) (*SlotTable, float64, error) {
	key, capacity, err := rm.kind.instance(spec)
	if err != nil {
		return nil, 0, err
	}
	amount, err := rm.kind.amount(spec)
	if err != nil {
		return nil, 0, err
	}
	st := rm.tables[key]
	if st == nil {
		st = NewSlotTable(capacity)
		rm.tables[key] = st
	}
	return st, amount, nil
}

// Admit implements ResourceManager.
func (rm *InstanceRM) Admit(r *Reservation) error {
	st, amount, err := rm.table(r.spec)
	if err != nil {
		return err
	}
	return st.Insert(r.id, r.start, r.end, amount)
}

// Release implements ResourceManager.
func (rm *InstanceRM) Release(r *Reservation) { removeID(rm.tables, r.id) }

// Activate implements ResourceManager.
func (rm *InstanceRM) Activate(r *Reservation) error { return rm.kind.activate(r) }

// Deactivate implements ResourceManager.
func (rm *InstanceRM) Deactivate(r *Reservation) { rm.kind.deactivate(r) }

// Modify implements ResourceManager: rebook the amount and, if
// active, retune enforcement. A refused retune restores the booking.
func (rm *InstanceRM) Modify(r *Reservation, spec Spec, start, end time.Duration) error {
	if err := rm.kind.sameOwner(r.spec, spec); err != nil {
		return err
	}
	st, amount, err := rm.table(spec)
	if err != nil {
		return err
	}
	if err := st.Update(r.id, start, end, amount); err != nil {
		return err
	}
	if r.state == StateActive {
		if err := rm.kind.retune(r, spec); err != nil {
			// The old booking fitted before and nothing else moved.
			prev, _ := rm.kind.amount(r.spec)
			st.Update(r.id, r.start, r.end, prev)
			return err
		}
	}
	return nil
}

// MaxCPUReservation is DSRT's admission ceiling per processor.
const MaxCPUReservation = 0.95

// NewCPURM returns GARA's resource manager for the DSRT soft-real-time
// CPU scheduler: a booking is a share of the task's processor, and
// activation installs it into DSRT.
func NewCPURM() *InstanceRM {
	return &InstanceRM{kind: cpuKind{}, tables: make(map[any]*SlotTable)}
}

// cpuKind books Spec.Fraction of Spec.Task's processor.
type cpuKind struct{}

func (cpuKind) resourceType() ResourceType { return ResourceCPU }

func (cpuKind) instance(spec Spec) (any, float64, error) {
	if spec.Task == nil {
		return nil, 0, fmt.Errorf("gara: CPU spec has no task")
	}
	return spec.Task.CPU(), MaxCPUReservation, nil
}

func (cpuKind) amount(spec Spec) (float64, error) {
	if spec.Fraction <= 0 || spec.Fraction > MaxCPUReservation {
		return 0, fmt.Errorf("gara: CPU fraction %.2f out of (0, %.2f]", spec.Fraction, MaxCPUReservation)
	}
	return spec.Fraction, nil
}

func (cpuKind) sameOwner(old, spec Spec) error {
	if spec.Task != old.Task {
		return fmt.Errorf("gara: cannot move a CPU reservation between tasks")
	}
	return nil
}

func (cpuKind) activate(r *Reservation) error { return r.spec.Task.SetReservation(r.spec.Fraction) }

func (cpuKind) retune(r *Reservation, spec Spec) error {
	return spec.Task.SetReservation(spec.Fraction)
}

// deactivate ignores SetReservation's error: clearing to zero always
// passes admission.
func (cpuKind) deactivate(r *Reservation) { _ = r.spec.Task.SetReservation(0) }

// NewStorageRM returns GARA's resource manager for DPSS servers: a
// booking is a read rate on the server, and activation reserves it
// there.
func NewStorageRM() *InstanceRM {
	return &InstanceRM{kind: storageKind{}, tables: make(map[any]*SlotTable)}
}

// storageKind books Spec.ReadRate on Spec.Store.
type storageKind struct{}

func (storageKind) resourceType() ResourceType { return ResourceStorage }

func (storageKind) instance(spec Spec) (any, float64, error) {
	if spec.Store == nil {
		return nil, 0, fmt.Errorf("gara: storage spec has no server")
	}
	return spec.Store, float64(spec.Store.capacity), nil
}

func (storageKind) amount(spec Spec) (float64, error) {
	if spec.ReadRate <= 0 {
		return 0, fmt.Errorf("gara: non-positive storage rate %v", spec.ReadRate)
	}
	return float64(spec.ReadRate), nil
}

func (storageKind) sameOwner(old, spec Spec) error {
	if spec.Store != old.Store {
		return fmt.Errorf("gara: cannot move a storage reservation between servers")
	}
	return nil
}

func (storageKind) activate(r *Reservation) error { return r.spec.Store.reserve(0, r.spec.ReadRate) }

func (storageKind) retune(r *Reservation, spec Spec) error {
	return spec.Store.reserve(r.spec.ReadRate, spec.ReadRate)
}

// deactivate ignores reserve's error: lowering a rate always fits.
func (storageKind) deactivate(r *Reservation) { _ = r.spec.Store.reserve(r.spec.ReadRate, 0) }
