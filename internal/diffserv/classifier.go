package diffserv

import (
	"fmt"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
)

// Match describes which packets a rule applies to. Nil fields are
// wildcards, so the zero Match matches everything. Edge routers
// classify "based on information in the header, such as source and
// destination addresses and ports".
type Match struct {
	Src     *netsim.Addr
	Dst     *netsim.Addr
	SrcPort *netsim.Port
	DstPort *netsim.Port
	Proto   *netsim.Proto
	DSCP    *netsim.DSCP
}

// MatchFlow returns a Match for an exact flow 5-tuple.
func MatchFlow(k netsim.FlowKey) Match {
	return Match{Src: &k.Src, Dst: &k.Dst, SrcPort: &k.SrcPort, DstPort: &k.DstPort, Proto: &k.Proto}
}

// MatchHostPair returns a Match covering all traffic of one protocol
// between two hosts regardless of ports.
func MatchHostPair(src, dst netsim.Addr, proto netsim.Proto) Match {
	return Match{Src: &src, Dst: &dst, Proto: &proto}
}

// Matches reports whether packet p satisfies every non-nil field.
func (m Match) Matches(p *netsim.Packet) bool {
	if m.Src != nil && *m.Src != p.Src {
		return false
	}
	if m.Dst != nil && *m.Dst != p.Dst {
		return false
	}
	if m.SrcPort != nil && *m.SrcPort != p.SrcPort {
		return false
	}
	if m.DstPort != nil && *m.DstPort != p.DstPort {
		return false
	}
	if m.Proto != nil && *m.Proto != p.Proto {
		return false
	}
	if m.DSCP != nil && *m.DSCP != p.DSCP {
		return false
	}
	return true
}

func (m Match) String() string {
	s := "match{"
	if m.Src != nil {
		s += fmt.Sprintf("src=%d ", *m.Src)
	}
	if m.Dst != nil {
		s += fmt.Sprintf("dst=%d ", *m.Dst)
	}
	if m.SrcPort != nil {
		s += fmt.Sprintf("sport=%d ", *m.SrcPort)
	}
	if m.DstPort != nil {
		s += fmt.Sprintf("dport=%d ", *m.DstPort)
	}
	if m.Proto != nil {
		s += fmt.Sprintf("proto=%v ", *m.Proto)
	}
	if m.DSCP != nil {
		s += fmt.Sprintf("dscp=%v ", *m.DSCP)
	}
	return s + "}"
}

// ExceedAction says what a policer does with out-of-profile packets.
type ExceedAction uint8

const (
	// ExceedDrop discards out-of-profile packets (policing).
	ExceedDrop ExceedAction = iota
	// ExceedRemark demotes out-of-profile packets to best effort
	// instead of dropping them.
	ExceedRemark
)

// Rule classifies matching packets, marks them with a code point, and
// optionally polices them against a token bucket.
type Rule struct {
	Match Match
	// Mark is stamped on conforming packets.
	Mark netsim.DSCP
	// Police, if non-nil, is consulted per packet; out-of-profile
	// packets get the Exceed action.
	Police *TokenBucket
	Exceed ExceedAction

	// Fluid policing state: the conform budget in bytes/s left for
	// fluid aggregates in the current solver refresh (reset when the
	// generation changes, so concurrent fluid flows share one bucket
	// rate collectively).
	fluidGen    uint64
	fluidBudget float64

	// m holds the metric handles of the rule's mark, shared by every
	// rule marking the same class; Classifier.InsertRule copies
	// them in.
	m markMetrics
}

// markMetrics are the series a rule counts its policing in, one set
// per DSCP mark.
type markMetrics struct {
	label                              string
	conform, exceed, dropped, remarked *metrics.Counter
	rec                                *metrics.Recorder
}

// Classifier is an ordered rule list applied at an interface ingress
// (a netsim.IngressFilter). The first matching rule wins; packets
// matching no rule pass through unchanged.
type Classifier struct {
	k     *sim.Kernel
	rules []*Rule
	// marks caches each mark's metric handles, resolved in the
	// registry by the first rule with that mark. The classifiers of a
	// Domain share one cache.
	marks map[netsim.DSCP]*markMetrics
}

// InsertRule places a rule at the front (highest precedence). The
// rule list shifts in place.
func (c *Classifier) InsertRule(r *Rule) *Rule {
	c.attachMetrics(r)
	c.rules = append(c.rules, nil)
	copy(c.rules[1:], c.rules)
	c.rules[0] = r
	return r
}

// attachMetrics gives the rule its mark's metric handles, resolving
// them in the registry on the mark's first rule: a registry lookup
// builds the series key, four allocations or more.
func (c *Classifier) attachMetrics(r *Rule) {
	if m := c.marks[r.Mark]; m != nil {
		r.m = *m
		return
	}
	reg := c.k.Metrics()
	label := r.Mark.String()
	m := &markMetrics{
		label: label,
		conform: reg.Counter("diffserv_conform_packets_total",
			"policed packets within the token-bucket profile", "dscp", label),
		exceed: reg.Counter("diffserv_exceed_packets_total",
			"policed packets outside the token-bucket profile", "dscp", label),
		dropped: reg.Counter("diffserv_police_drops_total",
			"out-of-profile packets dropped by the policer", "dscp", label),
		remarked: reg.Counter("diffserv_remarked_packets_total",
			"out-of-profile packets demoted to best effort", "dscp", label),
		rec: reg.Events(),
	}
	if c.marks == nil {
		c.marks = make(map[netsim.DSCP]*markMetrics)
	}
	c.marks[r.Mark] = m
	r.m = *m
}

// RemoveRule deletes r from the rule list; it reports whether r was
// present.
func (c *Classifier) RemoveRule(r *Rule) bool {
	for i, x := range c.rules {
		if x == r {
			c.rules = append(c.rules[:i], c.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Rules returns the current rule list in precedence order. The slice
// is the classifier's own: adding, inserting or removing a rule
// changes it.
func (c *Classifier) Rules() []*Rule { return c.rules }

// Filter implements netsim.IngressFilter: classify, mark, police.
func (c *Classifier) Filter(p *netsim.Packet) *netsim.Packet {
	for _, r := range c.rules {
		if !r.Match.Matches(p) {
			continue
		}
		if r.Police != nil {
			if !r.Police.Conform(p.Size) {
				r.m.exceed.Inc()
				r.m.rec.Emit(metrics.EvTokenBucketExceed, r.m.label,
					int64(p.Size), int64(r.Exceed), 0)
				switch r.Exceed {
				case ExceedDrop:
					r.m.dropped.Inc()
					return nil
				case ExceedRemark:
					r.m.remarked.Inc()
					p.DSCP = netsim.DSCPBestEffort
					return p
				}
			}
			r.m.conform.Inc()
		}
		p.DSCP = r.Mark
		return p
	}
	return p
}

// FilterFluid implements netsim.FluidFilter: classify, mark, and
// police a fluid flow's rate components. Policing acts on the steady
// rate — the conforming share is min(rate, bucket rate), with bucket
// *depth* (burst tolerance) irrelevant at steady state — and the
// exceed action drops or remarks the excess rate exactly as it would
// excess packets. Rules police fluid collectively within one solver
// refresh: the first flows through a shared aggregate policer consume
// its rate budget in deterministic flow order. The components are
// appended to out, which must not share comps' array.
func (c *Classifier) FilterFluid(gen uint64, key netsim.FlowKey, comps, out []netsim.FluidComponent) []netsim.FluidComponent {
	for _, comp := range comps {
		probe := netsim.Packet{
			Src:     key.Src,
			Dst:     key.Dst,
			SrcPort: key.SrcPort,
			DstPort: key.DstPort,
			Proto:   key.Proto,
			DSCP:    comp.DSCP,
		}
		var rule *Rule
		for _, r := range c.rules {
			if r.Match.Matches(&probe) {
				rule = r
				break
			}
		}
		if rule == nil {
			out = append(out, comp)
			continue
		}
		out = rule.applyFluid(gen, comp, out)
	}
	return out
}

// applyFluid applies one rule to one fluid component, appending the
// surviving components to out.
func (r *Rule) applyFluid(gen uint64, comp netsim.FluidComponent, out []netsim.FluidComponent) []netsim.FluidComponent {
	if r.Police == nil {
		comp.DSCP = r.Mark
		out = append(out, comp)
		return out
	}
	if r.fluidGen != gen {
		r.fluidGen = gen
		r.fluidBudget = float64(r.Police.Rate()) / 8
	}
	conform := comp.Rate
	if conform > r.fluidBudget {
		conform = r.fluidBudget
	}
	r.fluidBudget -= conform
	if conform > 0 {
		out = append(out, netsim.FluidComponent{Rate: conform, DSCP: r.Mark})
	}
	if excess := comp.Rate - conform; excess > 0 && r.Exceed == ExceedRemark {
		out = append(out, netsim.FluidComponent{Rate: excess, DSCP: netsim.DSCPBestEffort})
	}
	return out
}
