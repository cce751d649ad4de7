package gara

import (
	"fmt"

	"mpichgq/internal/units"
)

// DPSS simulates the Distributed Parallel Storage System, the
// network-storage resource GARA managed alongside networks and CPUs.
// It is a rate-limited block server: storage reservations book read
// rates up to its aggregate read capacity.
type DPSS struct {
	capacity units.BitRate
	reserved units.BitRate
}

// NewDPSS returns a storage server with the given aggregate read
// capacity.
func NewDPSS(capacity units.BitRate) *DPSS {
	if capacity <= 0 {
		panic("gara: non-positive DPSS capacity")
	}
	return &DPSS{capacity: capacity}
}

// Capacity returns the server's aggregate read capacity.
func (d *DPSS) Capacity() units.BitRate { return d.capacity }

// ReservedRate returns the sum of active reservations.
func (d *DPSS) ReservedRate() units.BitRate { return d.reserved }

// reserve moves one reservation's rate on the server from old to rate,
// refusing a total above capacity.
func (d *DPSS) reserve(old, rate units.BitRate) error {
	total := d.reserved - old + rate
	if total > d.capacity {
		return fmt.Errorf("gara: DPSS reservation %v exceeds capacity %v", total, d.capacity)
	}
	d.reserved = total
	return nil
}
