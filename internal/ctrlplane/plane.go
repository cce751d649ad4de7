package ctrlplane

import (
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/faults"
	"mpichgq/internal/gara"
	"mpichgq/internal/sim"
)

// Fixed channel and breaker parameters.
const (
	// chanDelay is the one-way control-channel delay: a wide-area
	// control connection, not a LAN.
	chanDelay = 5 * time.Millisecond
	// chanJitter is the channel delay's multiplicative noise.
	chanJitter = 0.1
	// breakerCooldown holds a tripped breaker open this long.
	breakerCooldown = 2 * time.Second
)

// Options tunes a Plane's reliability layer. Zero values take the
// defaults noted per field.
type Options struct {
	// Timeout is the client's per-attempt reply timeout (default
	// 4×chanDelay + 10ms).
	Timeout time.Duration
	// Deadline is the per-call retry budget (default 8×Timeout).
	Deadline time.Duration
	// BreakerThreshold trips the per-RM breaker after this many
	// consecutive failures (default 4).
	BreakerThreshold int
	// LeaseTTL is the coordinator's prepare-lease length (default
	// 2×Deadline×domains at Coordinator build time; 0 here defers to
	// gara.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Admission, when ServiceTime > 0, puts the overload-control layer
	// (bounded fair queue, CoDel shedding, brownout) in front of every
	// domain server. The zero value keeps the legacy infinite-capacity
	// synchronous dispatch.
	Admission Admission
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 4*chanDelay + 10*time.Millisecond
	}
	if o.Deadline <= 0 {
		o.Deadline = 8 * o.Timeout
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 4
	}
	return o
}

// Plane assembles the control plane for a set of administrative
// domains: per-domain channel pairs, servers, breakers, and client
// stubs, plus the faults.CtrlResolver hook so chaos scenarios can
// impair any domain by name.
type Plane struct {
	k     *sim.Kernel
	opts  Options
	names []string
	conns map[string]*Conn
}

// Plane resolves control-plane fault targets.
var _ faults.CtrlResolver = (*Plane)(nil)

// NewPlane returns an empty control plane with the given options.
func NewPlane(k *sim.Kernel, opts Options) *Plane {
	return &Plane{k: k, opts: opts.withDefaults(), conns: make(map[string]*Conn)}
}

// AddDomain wires one administrative domain into the plane: its Gara
// and NetworkRM go behind a Server, reached through a fresh channel
// pair, client stub, and circuit breaker. The RM gets a journal if it
// does not have one (crash recovery needs it). Returns the stub.
func (p *Plane) AddDomain(name string, g *gara.Gara, rm *gara.NetworkRM) *Conn {
	if _, dup := p.conns[name]; dup {
		panic("ctrlplane: duplicate domain " + name)
	}
	if rm.Journal == nil {
		rm.Journal = gara.NewJournal()
	}
	srv := NewServer(p.k, name, g, rm)
	if p.opts.Admission.ServiceTime > 0 {
		srv.EnableAdmission(p.opts.Admission)
	}
	conn := p.newConn(srv, name, "")
	p.names = append(p.names, name)
	p.conns[name] = conn
	return conn
}

// newConn builds a client stub (channels, breaker, backoff) for srv.
func (p *Plane) newConn(srv *Server, chanName, tenant string) *Conn {
	toSrv := newChan(p.k, chanName+"/req", chanDelay, chanJitter)
	fromSrv := newChan(p.k, chanName+"/rep", chanDelay, chanJitter)
	breaker := NewBreaker(p.k, chanName, p.opts.BreakerThreshold, breakerCooldown)
	backoff := gq.NewBackoff(sim.NewRNG(p.k.RNG().Int63()),
		p.opts.Timeout/2, 4*p.opts.Timeout)
	conn := NewConn(p.k, srv, toSrv, fromSrv, p.opts.Timeout, p.opts.Deadline, backoff, breaker)
	conn.Tenant = tenant
	return conn
}

// AddTenantConn wires an additional client stub for an existing
// domain, representing a distinct tenant: its own channel pair,
// breaker, and backoff schedule, sharing the domain's server — so the
// admission queue sees (and fair-queues) competing principals. The
// stub is not registered in the plane's conn map (Conn(domain) stays
// the primary stub) and fault targeting applies per stub.
func (p *Plane) AddTenantConn(domain, tenant string) *Conn {
	primary := p.conns[domain]
	if primary == nil {
		panic("ctrlplane: AddTenantConn on unknown domain " + domain)
	}
	return p.newConn(primary.srv, domain+"/"+tenant, tenant)
}

// Names returns the domain names in the order added.
func (p *Plane) Names() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// Conn returns the named domain's client stub, or nil.
func (p *Plane) Conn(name string) *Conn { return p.conns[name] }

// Breaker returns the named domain's circuit breaker, or nil.
func (p *Plane) Breaker(name string) *Breaker {
	if c := p.conns[name]; c != nil {
		return c.Breaker
	}
	return nil
}

// Coordinator builds a two-phase coordinator over every domain, in the
// order added. The lease TTL is Options.LeaseTTL, or — when unset —
// twice the worst-case protocol round (Deadline per call, two calls
// per domain), so healthy-but-slow commits never lose their lease.
func (p *Plane) Coordinator() *Coordinator {
	conns := make([]*Conn, 0, len(p.names))
	for _, n := range p.names {
		conns = append(conns, p.conns[n])
	}
	co := NewCoordinator(conns...)
	co.LeaseTTL = p.opts.LeaseTTL
	if co.LeaseTTL <= 0 {
		co.LeaseTTL = 2 * p.opts.Deadline * time.Duration(2*len(conns))
	}
	return co
}

// ctrlTarget adapts one domain to faults.CtrlTarget.
type ctrlTarget struct{ conn *Conn }

func (t *ctrlTarget) SetCtrlLoss(prob float64) {
	t.conn.toSrv.SetLoss(prob)
	t.conn.fromSrv.SetLoss(prob)
}
func (t *ctrlTarget) CtrlCrash() { t.conn.srv.Crash() }
func (t *ctrlTarget) CtrlRestart() {
	_, _ = t.conn.srv.Restart()
}

// CtrlTarget implements faults.CtrlResolver.
func (p *Plane) CtrlTarget(name string) faults.CtrlTarget {
	c := p.conns[name]
	if c == nil {
		return nil
	}
	return &ctrlTarget{conn: c}
}
