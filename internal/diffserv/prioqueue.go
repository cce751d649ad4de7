package diffserv

import (
	"mpichgq/internal/netsim"
	"mpichgq/internal/units"
)

// PrioScheduler is a two-band strict-priority egress queue: packets
// marked EF go to the expedited band and are always transmitted before
// any best-effort packet ("all packets in the expedited router queue
// are sent before any other packets are sent"). When the expedited
// band is empty, best-effort traffic uses the entire link.
//
// Each band is drop-tail with its own byte capacity. Starvation of
// best effort is prevented not here but by admission control: the
// bandwidth broker only admits EF reservations up to a fraction of
// link capacity.
type PrioScheduler struct {
	ef netsim.DropTail
	be netsim.DropTail
}

// NewPrioScheduler returns a scheduler with the given per-band byte
// capacities.
func NewPrioScheduler(efCap, beCap units.ByteSize) *PrioScheduler {
	return &PrioScheduler{ef: *netsim.NewDropTail(efCap), be: *netsim.NewDropTail(beCap)}
}

// Enqueue implements netsim.Queue.
func (s *PrioScheduler) Enqueue(p *netsim.Packet) bool {
	if p.DSCP == netsim.DSCPEF {
		return s.ef.Enqueue(p)
	}
	return s.be.Enqueue(p)
}

// Dequeue implements netsim.Queue: strict priority, EF first.
func (s *PrioScheduler) Dequeue() *netsim.Packet {
	if p := s.ef.Dequeue(); p != nil {
		return p
	}
	return s.be.Dequeue()
}

// Len implements netsim.Queue.
func (s *PrioScheduler) Len() int { return s.ef.Len() + s.be.Len() }

// Bytes implements netsim.Queue.
func (s *PrioScheduler) Bytes() units.ByteSize { return s.ef.Bytes() + s.be.Bytes() }

// Expedited implements netsim.ExpeditedQueue: EF maps to the
// expedited band, everything else to best effort.
func (s *PrioScheduler) Expedited(d netsim.DSCP) bool { return d == netsim.DSCPEF }

// BandOccupancy implements netsim.ExpeditedQueue, reporting one band's
// queued bytes and byte capacity. The fluid solver uses it to lane
// fluid aggregates and to split buffer space between fluid backlog and
// packets.
func (s *PrioScheduler) BandOccupancy(expedited bool) (bytes, capacity units.ByteSize) {
	if expedited {
		return s.ef.Bytes(), s.ef.Cap()
	}
	return s.be.Bytes(), s.be.Cap()
}

// EFLen returns the number of packets queued in the expedited band.
func (s *PrioScheduler) EFLen() int { return s.ef.Len() }

// BELen returns the number of packets queued in the best-effort band.
func (s *PrioScheduler) BELen() int { return s.be.Len() }
