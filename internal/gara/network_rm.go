package gara

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// NetworkRM is GARA's Differentiated Services resource manager plus
// bandwidth broker: it performs per-link admission control against the
// EF share of each link on the flow's path, and enforces admitted
// reservations by installing token-bucket classifier rules at the edge
// router's ingress interface.
type NetworkRM struct {
	k          *sim.Kernel
	net        *netsim.Network
	domain     *diffserv.Domain
	efFraction float64
	// tables book EF capacity per transmit direction: the key is the
	// egress interface, so a full-duplex link offers its EF share
	// independently in each direction.
	tables map[*netsim.Iface]*SlotTable

	// Scope restricts this manager to the links its administrative
	// domain owns; nil owns everything. With a scope set, Admit books
	// only in-scope hops (ErrNotInDomain when there are none) and
	// Activate installs edge marking only when the flow *originates*
	// in this domain — transit domains honor the upstream marking.
	Scope Scope
	// Name identifies this manager in flight-recorder events and
	// metrics labels ("netrm" by default; multi-domain setups name
	// each RM after its domain).
	Name string
	// Journal, when set, write-ahead logs every booking operation so
	// Recover can rebuild the RM's state after Crash. Nil disables
	// journaling (the healthy-path default: zero overhead).
	Journal *Journal

	// attach holds the enforced reservations' state keyed by id — the
	// state a crash wipes and Recover rebuilds.
	attach map[uint64]*netAttachment
	// leases tracks prepared (uncommitted) bookings by absolute lease
	// expiry, so recovery can reconcile half-prepared bookings.
	leases map[uint64]time.Duration
	// hops is scratchPath's scratch.
	hops []*netsim.Iface
}

// netAttachment is the NetworkRM's per-reservation enforcement state,
// kept in NetworkRM.attach keyed by reservation id: the full path
// booked at admission (for health checks after topology changes), the
// installed edge rule, nil for transit segments, and the reservation,
// nil when Recover rebuilt the attachment from the journal.
type netAttachment struct {
	hops []*netsim.Iface
	fr   *diffserv.FlowReservation
	r    *Reservation
}

// NewNetworkRM returns a manager that admits EF reservations up to
// efFraction of each link's rate (the broker's anti-starvation limit:
// "the number of expedited packets must be carefully limited").
func NewNetworkRM(net *netsim.Network, domain *diffserv.Domain, efFraction float64) *NetworkRM {
	if efFraction <= 0 || efFraction > 1 {
		panic(fmt.Sprintf("gara: EF fraction %v out of (0, 1]", efFraction))
	}
	rm := &NetworkRM{
		k:          net.Kernel(),
		net:        net,
		domain:     domain,
		efFraction: efFraction,
		tables:     make(map[*netsim.Iface]*SlotTable),
		Name:       "netrm",
		attach:     make(map[uint64]*netAttachment),
		leases:     make(map[uint64]time.Duration),
	}
	// Re-validate enforced reservations whenever the topology changes.
	// Healthy runs never trigger this: links only change state under
	// fault injection.
	net.OnTopologyChange(rm.checkPaths)
	return rm
}

// Type implements ResourceManager.
func (rm *NetworkRM) Type() ResourceType { return ResourceNetwork }

func (rm *NetworkRM) table(out *netsim.Iface) *SlotTable {
	st := rm.tables[out]
	if st == nil {
		st = NewSlotTable(float64(out.Link().Rate()) * rm.efFraction)
		rm.tables[out] = st
	}
	return st
}

// Table exposes one transmit direction's slot table (for inspection
// tools): the table of the given egress interface.
func (rm *NetworkRM) Table(out *netsim.Iface) *SlotTable { return rm.table(out) }

// path walks the routing tables from spec's flow source to its
// destination, returning the egress interfaces traversed (the capacity
// consumed, per direction) and the ingress interface of the first
// router (where edge classification and policing happen). The hops
// are written over buf when it has room for them, and into a new
// slice of exactly their number otherwise: callers that keep the path
// pass nil.
func (rm *NetworkRM) path(buf []*netsim.Iface, spec Spec) ([]*netsim.Iface, *netsim.Iface, error) {
	src, dst, err := specPath(spec)
	if err != nil {
		return nil, nil, err
	}
	var srcNode *netsim.Node
	for _, nd := range rm.net.Nodes() {
		if nd.Addr() == src {
			srcNode = nd
			break
		}
	}
	if srcNode == nil {
		return nil, nil, fmt.Errorf("gara: unknown source address %d", src)
	}
	// Walk the route once to check it and count its hops, then again
	// to fill a slice of that size.
	n := 0
	for node := srcNode; node.Addr() != dst; n++ {
		out := node.RouteTo(dst)
		if out == nil {
			return nil, nil, fmt.Errorf("gara: no route from %q toward %d", node.Name(), dst)
		}
		if !out.Link().Up() {
			// Bandwidth cannot be promised across a dead link; with
			// static routing this makes admission (and reattach) fail
			// until the link returns or routes are recomputed.
			return nil, nil, fmt.Errorf("gara: link %s on the path is down", out.Link().Name())
		}
		node = out.Peer().Node()
		if n+1 > len(rm.net.Nodes()) {
			return nil, nil, fmt.Errorf("gara: routing loop toward %d", dst)
		}
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("gara: source and destination are the same node")
	}
	hops := slices.Grow(buf[:0], n)[:n]
	node := srcNode
	for i := range hops {
		hops[i] = node.RouteTo(dst)
		node = hops[i].Peer().Node()
	}
	return hops, hops[0].Peer(), nil
}

// scratchPath is path written over the manager's scratch hops, for
// callers that drop the path before they return.
func (rm *NetworkRM) scratchPath(spec Spec) ([]*netsim.Iface, error) {
	hops, _, err := rm.path(rm.hops, spec)
	if err == nil {
		rm.hops = hops
	}
	return hops, err
}

func specPath(spec Spec) (netsim.Addr, netsim.Addr, error) {
	if spec.Flow.Src == nil || spec.Flow.Dst == nil {
		return 0, 0, fmt.Errorf("gara: network spec must pin flow source and destination")
	}
	return *spec.Flow.Src, *spec.Flow.Dst, nil
}

// Admit implements ResourceManager: book spec.Bandwidth on every link
// of the path for the reservation window.
func (rm *NetworkRM) Admit(r *Reservation) error {
	spec := r.spec
	if spec.Bandwidth <= 0 {
		return fmt.Errorf("gara: non-positive bandwidth %v", spec.Bandwidth)
	}
	hops, err := rm.scratchPath(spec)
	if err != nil {
		return err
	}
	if err := rm.book(r.id, hops, r.start, r.end, spec.Bandwidth, "admission"); err != nil {
		return err
	}
	rm.journal(JournalRecord{Op: OpBook, ID: r.id, Spec: spec, Start: r.start, End: r.end})
	return nil
}

// book books bw over [start, end) under id on the hops this manager
// owns, all or none: ErrNotInDomain when it owns none of them, and
// when a table is full the hops booked so far are released and the
// error names op and the link.
func (rm *NetworkRM) book(id uint64, hops []*netsim.Iface, start, end time.Duration, bw units.BitRate, op string) error {
	hops = rm.owned(hops)
	if len(hops) == 0 {
		return ErrNotInDomain
	}
	for i, out := range hops {
		if err := rm.table(out).Insert(id, start, end, float64(bw)); err != nil {
			for _, b := range hops[:i] {
				rm.table(b).Remove(id)
			}
			return fmt.Errorf("gara: %s failed on link %s: %w", op, out.Link().Name(), err)
		}
	}
	return nil
}

// Release implements ResourceManager.
func (rm *NetworkRM) Release(r *Reservation) { rm.unbook(r.id) }

// unbook removes id from every slot table and drops its lease,
// journaling the release when anything was booked. It reports whether
// anything was.
func (rm *NetworkRM) unbook(id uint64) bool {
	removed := removeID(rm.tables, id)
	delete(rm.leases, id)
	if removed {
		rm.journal(JournalRecord{Op: OpRelease, ID: id})
	}
	return removed
}

// depthFor computes the token bucket depth for a spec. A spec that
// does not fix a depth gets §4.3's bandwidth/40 rule.
func (rm *NetworkRM) depthFor(spec Spec) units.ByteSize {
	if spec.BucketDepth > 0 {
		return spec.BucketDepth
	}
	return diffserv.DepthForRate(spec.Bandwidth, diffserv.NormalBucketDivisor)
}

// Activate implements ResourceManager: install the classify+mark+
// police rule at the edge ingress. Scoped managers only do this when
// the flow originates in their domain; transit segments need no rule
// (packets arrive already marked EF and ride the aggregate).
func (rm *NetworkRM) Activate(r *Reservation) error {
	hops, edgeIngress, err := rm.path(nil, r.spec)
	if err != nil {
		return err
	}
	att := rm.install(r.id, r, r.spec, hops, edgeIngress, rm.Scope == nil || rm.Scope(hops[0]))
	rm.journal(JournalRecord{Op: OpActivate, ID: r.id, Edge: att.fr != nil})
	return nil
}

// install records the attachment of id, booked on the path hops, and
// with edge set installs spec's edge rule at edgeIngress. Transit
// domains install no rule but still attach the reservation: their
// booked hops can break too.
func (rm *NetworkRM) install(id uint64, r *Reservation, spec Spec, hops []*netsim.Iface, edgeIngress *netsim.Iface, edge bool) *netAttachment {
	att := &netAttachment{hops: hops, r: r}
	if edge {
		att.fr = rm.domain.ReserveFlow(edgeIngress, spec.Flow, spec.Bandwidth, rm.depthFor(spec), diffserv.ExceedDrop)
	}
	rm.attach[id] = att
	return att
}

// Enforcement returns the edge rule installed for r, or nil (transit
// segment or not active). Inspection/test helper.
func (rm *NetworkRM) Enforcement(r *Reservation) *diffserv.FlowReservation {
	if att := rm.attach[r.id]; att != nil {
		return att.fr
	}
	return nil
}

// owned filters hops to this manager's scope.
func (rm *NetworkRM) owned(hops []*netsim.Iface) []*netsim.Iface {
	if rm.Scope == nil {
		return hops
	}
	var out []*netsim.Iface
	for _, h := range hops {
		if rm.Scope(h) {
			out = append(out, h)
		}
	}
	return out
}

// Deactivate implements ResourceManager.
func (rm *NetworkRM) Deactivate(r *Reservation) {
	att := rm.attach[r.id]
	if att == nil {
		return
	}
	delete(rm.attach, r.id)
	if att.fr != nil {
		att.fr.Remove()
		att.fr = nil
	}
	rm.journal(JournalRecord{Op: OpDeactivate, ID: r.id})
}

// Modify implements ResourceManager: rebook the path slots at the new
// bandwidth and window and retune the installed token bucket in place.
// The flow itself (endpoints) may not change.
func (rm *NetworkRM) Modify(r *Reservation, spec Spec, start, end time.Duration) error {
	oldSrc, oldDst, _ := specPath(r.spec)
	newSrc, newDst, err := specPath(spec)
	if err != nil {
		return err
	}
	if oldSrc != newSrc || oldDst != newDst {
		return fmt.Errorf("gara: cannot modify a reservation's endpoints")
	}
	hops, err := rm.scratchPath(spec)
	if err != nil {
		return err
	}
	hops = rm.owned(hops)
	for i, out := range hops {
		if err := rm.table(out).Update(r.id, start, end, float64(spec.Bandwidth)); err != nil {
			for _, d := range hops[:i] {
				rm.table(d).Update(r.id, r.start, r.end, float64(r.spec.Bandwidth))
			}
			return err
		}
	}
	rm.journal(JournalRecord{Op: OpBook, ID: r.id, Spec: spec, Start: start, End: end})
	if r.state == StateActive {
		if fr := rm.Enforcement(r); fr != nil {
			fr.SetRate(spec.Bandwidth)
			fr.SetDepth(rm.depthFor(spec))
		}
	}
	return nil
}

// checkPaths re-validates every enforced reservation after a topology
// change: a reservation whose booked path contains a down link, or
// whose current route no longer matches the booked hops, is degraded
// (enforcement removed, capacity released). Reservations are visited
// in id order so fault handling stays deterministic; attachments
// Recover rebuilt have no reservation to degrade.
func (rm *NetworkRM) checkPaths() {
	ids := make([]uint64, 0, len(rm.attach))
	for id, att := range rm.attach {
		if att.r != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		att := rm.attach[id]
		if att == nil || att.r == nil || att.r.state != StateActive {
			continue
		}
		if !rm.pathHealthy(att) {
			att.r.Degrade() // Deactivate drops its attachment
		}
	}
}

// pathHealthy reports whether att's booked hops are all in service and
// still what the routing tables would choose.
func (rm *NetworkRM) pathHealthy(att *netAttachment) bool {
	for _, out := range att.hops {
		if !out.Link().Up() {
			return false
		}
	}
	// The spec pins its endpoints: Admit checked them.
	hops, err := rm.scratchPath(att.r.spec)
	if err != nil {
		return false // destination became unreachable
	}
	if len(hops) != len(att.hops) {
		return false
	}
	for i := range hops {
		if hops[i] != att.hops[i] {
			return false
		}
	}
	return true
}

// Reattach implements Reattacher: re-admit the reservation on the
// current path for the remainder of its window and reinstall edge
// enforcement. Fails (leaving the reservation degraded and unbooked)
// when the surviving path lacks EF capacity.
func (rm *NetworkRM) Reattach(r *Reservation) error {
	hops, edgeIngress, err := rm.path(nil, r.spec)
	if err != nil {
		return err
	}
	start := r.start
	if now := rm.k.Now(); start < now {
		start = now // book only the remaining window
	}
	if err := rm.book(r.id, hops, start, r.end, r.spec.Bandwidth, "reattach"); err != nil {
		return err
	}
	att := rm.install(r.id, r, r.spec, hops, edgeIngress, rm.Scope == nil || rm.Scope(hops[0]))
	rm.journal(JournalRecord{Op: OpBook, ID: r.id, Spec: r.spec, Start: start, End: r.end})
	rm.journal(JournalRecord{Op: OpActivate, ID: r.id, Edge: att.fr != nil})
	return nil
}

// Utilization reports the EF commitment on link l at time t as a
// fraction of the link's EF capacity — the maximum over its two
// transmit directions.
func (rm *NetworkRM) Utilization(l *netsim.Link, t time.Duration) float64 {
	util := func(out *netsim.Iface) float64 {
		st := rm.table(out)
		if st.Capacity() == 0 {
			return 0
		}
		return st.CommittedAt(t) / st.Capacity()
	}
	a, b := util(l.A()), util(l.B())
	if a > b {
		return a
	}
	return b
}
