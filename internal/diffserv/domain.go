package diffserv

import (
	"fmt"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Domain is the configuration surface of one Differentiated Services
// domain: it owns the classifier attached to each configured interface
// and provides the operations GARA's network resource manager performs
// — enabling EF priority queueing on egress ports and installing,
// modifying, and removing per-flow token-bucket reservations on edge
// ingress ports.
type Domain struct {
	k           *sim.Kernel
	classifiers map[*netsim.Iface]*Classifier
	efEnabled   map[*netsim.Iface]bool
	// marks is the metric-handle cache the domain's classifiers share.
	marks map[netsim.DSCP]*markMetrics
}

// NewDomain returns an empty domain on kernel k.
func NewDomain(k *sim.Kernel) *Domain {
	return &Domain{
		k:           k,
		classifiers: make(map[*netsim.Iface]*Classifier),
		efEnabled:   make(map[*netsim.Iface]bool),
		marks:       make(map[netsim.DSCP]*markMetrics),
	}
}

// Classifier returns the classifier attached to iface's ingress,
// creating and attaching one on first use.
func (d *Domain) Classifier(ifc *netsim.Iface) *Classifier {
	c := d.classifiers[ifc]
	if c == nil {
		c = &Classifier{k: d.k, marks: d.marks}
		ifc.AddIngress(c)
		d.classifiers[ifc] = c
	}
	return c
}

// EnableEF replaces iface's egress queue with a strict-priority
// scheduler. Idempotent.
func (d *Domain) EnableEF(ifc *netsim.Iface, efCap, beCap units.ByteSize) {
	if d.efEnabled[ifc] {
		return
	}
	s := NewPrioScheduler(efCap, beCap)
	ifc.SetQueue(s)
	d.efEnabled[ifc] = true
	label := ifc.String()
	reg := d.k.Metrics()
	reg.GaugeFunc("diffserv_ef_queue_packets",
		"packets queued in the expedited band",
		func() float64 { return float64(s.EFLen()) }, "iface", label)
	reg.GaugeFunc("diffserv_be_queue_packets",
		"packets queued in the best-effort band",
		func() float64 { return float64(s.BELen()) }, "iface", label)
}

// EnableEFAll enables EF priority queueing on every interface of every
// given node, with each band sized to the interface's previous default
// capacity.
func (d *Domain) EnableEFAll(nodes ...*netsim.Node) {
	for _, nd := range nodes {
		for _, ifc := range nd.Ifaces() {
			d.EnableEF(ifc, netsim.DefaultQueueCap, netsim.DefaultQueueCap)
		}
	}
}

// PoliceAggregate installs the paper's domain-ingress protection: "a
// token bucket mechanism ... is also used on the ingress router of a
// domain to police the premium aggregate". Packets already marked EF
// arriving at ifc are policed collectively; out-of-profile aggregate
// traffic is dropped (a neighbouring domain sending more premium
// traffic than agreed must not starve local reservations). The rule
// is appended at lowest precedence so per-flow rules classify first.
func (d *Domain) PoliceAggregate(ifc *netsim.Iface, rate units.BitRate, depth units.ByteSize) *FlowReservation {
	tb := NewTokenBucket(d.k, rate, depth)
	rule := &Rule{Match: MatchDSCP(netsim.DSCPEF), Mark: netsim.DSCPEF, Police: tb, Exceed: ExceedDrop}
	d.Classifier(ifc).AddRule(rule)
	return &FlowReservation{domain: d, ifc: ifc, rule: rule, tb: tb, active: true}
}

// FlowReservation is an installed premium reservation: a
// classify+mark+police rule on one ingress interface.
type FlowReservation struct {
	domain *Domain
	ifc    *netsim.Iface
	rule   *Rule
	tb     *TokenBucket
	active bool
}

// ReserveFlow installs a premium (EF) reservation for traffic matching
// m arriving at edge ingress ifc: conforming packets are marked EF,
// out-of-profile packets get the exceed action. The reservation is
// inserted at highest precedence so it shadows broader rules.
func (d *Domain) ReserveFlow(ifc *netsim.Iface, m Match, rate units.BitRate, depth units.ByteSize, exceed ExceedAction) *FlowReservation {
	tb := NewTokenBucket(d.k, rate, depth)
	rule := &Rule{Match: m, Mark: netsim.DSCPEF, Police: tb, Exceed: exceed}
	d.Classifier(ifc).InsertRule(rule)
	return &FlowReservation{domain: d, ifc: ifc, rule: rule, tb: tb, active: true}
}

// SetRate changes the reservation's policed rate in place.
func (fr *FlowReservation) SetRate(r units.BitRate) { fr.tb.SetRate(r) }

// SetDepth changes the reservation's token bucket depth in place.
func (fr *FlowReservation) SetDepth(depth units.ByteSize) { fr.tb.SetDepth(depth) }

// Rate returns the reservation's current policed rate.
func (fr *FlowReservation) Rate() units.BitRate { return fr.tb.Rate() }

// Depth returns the reservation's current bucket depth.
func (fr *FlowReservation) Depth() units.ByteSize { return fr.tb.Depth() }

// Bucket returns the underlying token bucket (for stats).
func (fr *FlowReservation) Bucket() *TokenBucket { return fr.tb }

// Active reports whether the reservation is still installed.
func (fr *FlowReservation) Active() bool { return fr.active }

// Remove uninstalls the reservation. Idempotent.
func (fr *FlowReservation) Remove() {
	if !fr.active {
		return
	}
	fr.domain.classifiers[fr.ifc].RemoveRule(fr.rule)
	fr.active = false
}

func (fr *FlowReservation) String() string {
	return fmt.Sprintf("reservation{%v rate=%v depth=%v}", fr.rule.Match, fr.tb.Rate(), fr.tb.Depth())
}
