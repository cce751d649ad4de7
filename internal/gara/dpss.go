package gara

import (
	"fmt"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// DPSS simulates the Distributed Parallel Storage System, the
// network-storage resource GARA managed alongside networks and CPUs.
// It is a rate-limited block server: total read capacity is shared by
// sessions, with reserved sessions guaranteed their rate and
// best-effort sessions splitting the remainder equally.
type DPSS struct {
	k        *sim.Kernel
	capacity units.BitRate
	reserved units.BitRate
	sessions []*DPSSSession
}

// NewDPSS returns a storage server with the given aggregate read
// capacity.
func NewDPSS(k *sim.Kernel, capacity units.BitRate) *DPSS {
	if capacity <= 0 {
		panic("gara: non-positive DPSS capacity")
	}
	return &DPSS{k: k, capacity: capacity}
}

// Capacity returns the server's aggregate read capacity.
func (d *DPSS) Capacity() units.BitRate { return d.capacity }

// ReservedRate returns the sum of active session reservations.
func (d *DPSS) ReservedRate() units.BitRate { return d.reserved }

// Open starts a best-effort session.
func (d *DPSS) Open(name string) *DPSSSession {
	s := &DPSSSession{d: d, name: name}
	d.sessions = append(d.sessions, s)
	return s
}

// DPSSSession is one client's connection to the storage server.
type DPSSSession struct {
	d         *DPSS
	name      string
	rate      units.BitRate // reserved rate; 0 = best effort
	closed    bool
	bytesRead int64
}

// Rate returns the session's current effective read rate.
func (s *DPSSSession) Rate() units.BitRate {
	if s.closed {
		return 0
	}
	if s.rate > 0 {
		return s.rate
	}
	// Best effort: split the unreserved capacity equally.
	free := s.d.capacity - s.d.reserved
	if free <= 0 {
		return 0
	}
	n := 0
	for _, x := range s.d.sessions {
		if !x.closed && x.rate == 0 {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return free / units.BitRate(n)
}

// Read blocks the calling process while n bytes stream from the server
// at the session's current rate.
func (s *DPSSSession) Read(ctx *sim.Ctx, n units.ByteSize) error {
	if s.closed {
		return fmt.Errorf("gara: DPSS session %q closed", s.name)
	}
	rate := s.Rate()
	if rate <= 0 {
		// Starved best-effort session: poll until capacity appears.
		for rate <= 0 {
			ctx.Sleep(10 * time.Millisecond)
			if s.closed {
				return fmt.Errorf("gara: DPSS session %q closed", s.name)
			}
			rate = s.Rate()
		}
	}
	ctx.Sleep(rate.TimeToSend(n))
	s.bytesRead += int64(n)
	return nil
}

// BytesRead returns the session's cumulative bytes.
func (s *DPSSSession) BytesRead() units.ByteSize { return units.ByteSize(s.bytesRead) }

// Close ends the session, releasing any reservation.
func (s *DPSSSession) Close() {
	if s.closed {
		return
	}
	if s.rate > 0 {
		s.d.reserved -= s.rate
		s.rate = 0
	}
	s.closed = true
}

// setReserved installs or clears a rate reservation on the session.
func (s *DPSSSession) setReserved(rate units.BitRate) error {
	if s.closed {
		return fmt.Errorf("gara: DPSS session %q closed", s.name)
	}
	newTotal := s.d.reserved - s.rate + rate
	if newTotal > s.d.capacity {
		return fmt.Errorf("gara: DPSS reservation %v exceeds capacity %v", newTotal, s.d.capacity)
	}
	s.d.reserved = newTotal
	s.rate = rate
	return nil
}

// StorageRM is GARA's resource manager for DPSS servers.
type StorageRM struct {
	tables map[*DPSS]*SlotTable
}

// NewStorageRM returns an empty storage resource manager.
func NewStorageRM() *StorageRM {
	return &StorageRM{tables: make(map[*DPSS]*SlotTable)}
}

// Type implements ResourceManager.
func (rm *StorageRM) Type() ResourceType { return ResourceStorage }

func (rm *StorageRM) table(d *DPSS) *SlotTable {
	st := rm.tables[d]
	if st == nil {
		st = NewSlotTable(float64(d.capacity))
		rm.tables[d] = st
	}
	return st
}

func storageOf(spec Spec) (*DPSS, error) {
	if spec.Store == nil {
		return nil, fmt.Errorf("gara: storage spec has no server")
	}
	return spec.Store, nil
}

// Admit implements ResourceManager.
func (rm *StorageRM) Admit(r *Reservation) error {
	d, err := storageOf(r.spec)
	if err != nil {
		return err
	}
	if r.spec.ReadRate <= 0 {
		return fmt.Errorf("gara: non-positive storage rate %v", r.spec.ReadRate)
	}
	return rm.table(d).Insert(r.id, r.start, r.end, float64(r.spec.ReadRate))
}

// Release implements ResourceManager.
func (rm *StorageRM) Release(r *Reservation) {
	for _, st := range rm.tables {
		st.Remove(r.id)
	}
}

// Activate implements ResourceManager: open a reserved session.
func (rm *StorageRM) Activate(r *Reservation) error {
	d, err := storageOf(r.spec)
	if err != nil {
		return err
	}
	s := d.Open(fmt.Sprintf("gara-%d", r.id))
	if err := s.setReserved(r.spec.ReadRate); err != nil {
		s.Close()
		return err
	}
	r.rmData = s
	return nil
}

// Deactivate implements ResourceManager.
func (rm *StorageRM) Deactivate(r *Reservation) {
	if s, ok := r.rmData.(*DPSSSession); ok && s != nil {
		s.Close()
		r.rmData = nil
	}
}

// Modify implements ResourceManager.
func (rm *StorageRM) Modify(r *Reservation, spec Spec) error {
	if spec.Store != r.spec.Store {
		return fmt.Errorf("gara: cannot move a storage reservation between servers")
	}
	d, err := storageOf(spec)
	if err != nil {
		return err
	}
	if spec.ReadRate <= 0 {
		return fmt.Errorf("gara: non-positive storage rate %v", spec.ReadRate)
	}
	now := r.g.k.Now()
	start, end := spec.window(now)
	if r.state == StateActive {
		start = r.start
	}
	if err := rm.table(d).Update(r.id, start, end, float64(spec.ReadRate)); err != nil {
		return err
	}
	r.spec = spec
	r.start, r.end = start, end
	if r.state == StateActive {
		if s, ok := r.rmData.(*DPSSSession); ok && s != nil {
			if err := s.setReserved(spec.ReadRate); err != nil {
				return err
			}
		}
		r.endTimer.Cancel()
		r.armEnd()
	}
	return nil
}

// Session returns the live session backing an active reservation.
func Session(r *Reservation) (*DPSSSession, bool) {
	s, ok := r.rmData.(*DPSSSession)
	return s, ok && s != nil
}
