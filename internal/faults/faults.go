// Package faults is a deterministic fault-injection subsystem for
// netsim networks: scheduled link flaps, windows of random per-link
// packet loss or corruption, and control-plane and MPI rank crashes,
// all driven by the sim kernel so every run with the same seed replays
// the same fault sequence.
//
// A Scenario is built with a fluent API —
//
//	sc := faults.NewScenario("wan-flap").
//		LinkDown(20*time.Second, "edge1-core").
//		LinkUp(32*time.Second, "edge1-core")
//	sc.Apply(net)
//
// — or drawn at random (RankMTBF) for chaos tests. Faults reference
// links and ranks by name and resolve them when applied, so one
// scenario can run against any topology that has them.
package faults

import (
	"fmt"
	"sort"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// Interned flight-recorder subjects for EvFaultInject, one per action
// kind.
const (
	actLinkDown    = "link-down"
	actLinkUp      = "link-up"
	actLossStart   = "loss-start"
	actLossEnd     = "loss-end"
	actCorruptDrop = "corrupt"
	actLossDrop    = "loss"
	actCtrlLoss    = "ctrl-loss"
	actCtrlLossEnd = "ctrl-loss-end"
	actCtrlCrash   = "ctrl-crash"
	actCtrlRestart = "ctrl-restart"
	actRankCrash   = "rank-crash"
	actRankRestart = "rank-restart"
)

// CtrlTarget is one domain's control-plane endpoint as the fault
// injector sees it: message loss on its control channel, and crash/
// restart of its resource-manager server. Implemented by
// ctrlplane.Plane targets; defined here so faults does not import
// ctrlplane.
type CtrlTarget interface {
	// SetCtrlLoss sets the control channel's per-message drop
	// probability (both directions); 0 restores a reliable channel.
	SetCtrlLoss(prob float64)
	// CtrlCrash kills the domain's RM server (in-flight and future
	// requests are silently dropped; RM state is lost).
	CtrlCrash()
	// CtrlRestart brings the RM server back, replaying its journal.
	CtrlRestart()
}

// CtrlResolver resolves control-plane targets by domain name at Apply
// time, the way links and nodes resolve against the network.
type CtrlResolver interface {
	// CtrlTarget returns the named domain's endpoint, or nil.
	CtrlTarget(name string) CtrlTarget
}

// RankTarget is one MPI rank's process as the fault injector sees it:
// abrupt crash (the process dies, its connections abort, peers observe
// MPI_ERRORS_RETURN-style typed errors) and restart (a fresh
// incarnation rejoins the job, resuming from its last checkpoint).
// Implemented by mpi.Job targets; defined here so faults does not
// import mpi.
type RankTarget interface {
	// RankCrash kills the rank's process immediately.
	RankCrash()
	// RankRestart brings a crashed rank back as a new incarnation.
	RankRestart()
}

// RankResolver resolves rank targets by task name ("rank-3") at Apply
// time, the way links and nodes resolve against the network.
type RankResolver interface {
	// RankTarget returns the named rank's endpoint, or nil.
	RankTarget(name string) RankTarget
}

// Targets bundles the non-network fault surfaces a scenario may act
// on. Either field may be nil when the scenario has no actions of
// that family.
type Targets struct {
	Ctrl  CtrlResolver
	Ranks RankResolver
}

// action is one scheduled fault event.
type action struct {
	at   time.Duration
	kind string
	// link or node name, depending on kind.
	target string
	// prob and until apply to loss/corruption windows.
	prob    float64
	until   time.Duration
	corrupt bool
}

// Scenario is an ordered set of scheduled fault actions.
type Scenario struct {
	name    string
	actions []action
}

// NewScenario returns an empty scenario with the given name.
func NewScenario(name string) *Scenario { return &Scenario{name: name} }

// LinkDown schedules the named link to leave service at t.
func (s *Scenario) LinkDown(t time.Duration, link string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actLinkDown, target: link})
	return s
}

// LinkUp schedules the named link to return to service at t.
func (s *Scenario) LinkUp(t time.Duration, link string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actLinkUp, target: link})
	return s
}

// Flap schedules a down/up cycle on the named link.
func (s *Scenario) Flap(link string, down, up time.Duration) *Scenario {
	return s.LinkDown(down, link).LinkUp(up, link)
}

// Loss schedules a window [from, to) of random packet loss on the
// named link: each packet arriving at either end is dropped with
// probability prob, drawn from the injection's deterministic RNG.
func (s *Scenario) Loss(link string, from, to time.Duration, prob float64) *Scenario {
	s.actions = append(s.actions, action{
		at: from, until: to, kind: actLossStart, target: link, prob: prob,
	})
	return s
}

// Corrupt schedules a window [from, to) of random packet corruption
// on the named link. A corrupted packet fails its checksum at the
// receiving interface and is dropped there; it differs from Loss only
// in how the drop is reported.
func (s *Scenario) Corrupt(link string, from, to time.Duration, prob float64) *Scenario {
	s.actions = append(s.actions, action{
		at: from, until: to, kind: actLossStart, target: link, prob: prob, corrupt: true,
	})
	return s
}

// CtrlLoss schedules a window [from, to) of control-message loss on
// the named domain's control channel: each request or reply is dropped
// with probability prob. Scenarios using control-plane actions must be
// applied with ApplyWith.
func (s *Scenario) CtrlLoss(domain string, from, to time.Duration, prob float64) *Scenario {
	s.actions = append(s.actions, action{
		at: from, until: to, kind: actCtrlLoss, target: domain, prob: prob,
	})
	return s
}

// CtrlCrash schedules the named domain's RM server to crash at t.
func (s *Scenario) CtrlCrash(t time.Duration, domain string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actCtrlCrash, target: domain})
	return s
}

// CtrlRestart schedules the named domain's RM server to restart (and
// replay its journal) at t.
func (s *Scenario) CtrlRestart(t time.Duration, domain string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actCtrlRestart, target: domain})
	return s
}

// RankCrash schedules the named MPI rank (task name, e.g. "rank-3") to
// fail at t. Scenarios using rank actions must be applied with
// ApplyTargets.
func (s *Scenario) RankCrash(t time.Duration, rank string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actRankCrash, target: rank})
	return s
}

// RankRestart schedules the named crashed rank's recovery at t: a
// fresh incarnation rejoins the job and resumes from its last
// checkpoint.
func (s *Scenario) RankRestart(t time.Duration, rank string) *Scenario {
	s.actions = append(s.actions, action{at: t, kind: actRankRestart, target: rank})
	return s
}

// Injection is a scenario applied to one network: the state its
// scheduled actions and impairment filters share.
type Injection struct {
	k   *sim.Kernel
	rng *sim.RNG
	rec *metrics.Recorder
	tr  *spans.Tracer
	// trace groups every span of this scenario's actions, keyed by the
	// scenario name.
	trace spans.TraceID
}

// instant records a zero-duration fault span at the current sim time.
func (in *Injection) instant(name, target string) {
	in.tr.Begin(in.trace, 0, name, target).End()
}

// Apply schedules every action of the scenario on net's kernel and
// returns the injection handle. It validates that every referenced
// link exists, so a typo fails fast instead of silently
// injecting nothing. Randomness is drawn from a dedicated RNG seeded
// from the kernel's, keeping fault draws independent of (and the run
// reproducible alongside) other stochastic components. Scenarios with
// control-plane actions must use ApplyWith.
func (s *Scenario) Apply(net *netsim.Network) (*Injection, error) {
	return s.ApplyWith(net, nil)
}

// ApplyWith is Apply plus a control-plane resolver for CtrlLoss /
// CtrlCrash / CtrlRestart actions (nil is allowed when the scenario
// has none).
func (s *Scenario) ApplyWith(net *netsim.Network, ctrl CtrlResolver) (*Injection, error) {
	return s.ApplyTargets(net, Targets{Ctrl: ctrl})
}

// ApplyTargets is Apply plus resolvers for every non-network fault
// family: control-plane actions resolve through t.Ctrl, rank crash/
// restart actions through t.Ranks. A nil resolver is allowed when the
// scenario has no actions of that family.
func (s *Scenario) ApplyTargets(net *netsim.Network, tg Targets) (*Injection, error) {
	ctrl := tg.Ctrl
	k := net.Kernel()
	in := &Injection{
		k:     k,
		rng:   sim.NewRNG(k.RNG().Int63()),
		rec:   k.Metrics().Events(),
		tr:    k.Tracer(),
		trace: spans.DeriveTraceString(spans.NSFault, s.name),
	}
	// Sort by time (stable: same-time actions keep builder order) so
	// scheduling order is deterministic regardless of builder style.
	acts := make([]action, len(s.actions))
	copy(acts, s.actions)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	for _, a := range acts {
		a := a
		switch a.kind {
		case actLinkDown, actLinkUp:
			l := net.Link(a.target)
			if l == nil {
				return nil, fmt.Errorf("faults: scenario %q: no link %q", s.name, a.target)
			}
			up := a.kind == actLinkUp
			span := "fault." + a.kind
			k.At(a.at, sim.PrioNormal, func() {
				in.rec.Emit(metrics.EvFaultInject, a.kind, 0, 0, 0)
				in.instant(span, a.target)
				l.SetUp(up)
			})
		case actLossStart:
			l := net.Link(a.target)
			if l == nil {
				return nil, fmt.Errorf("faults: scenario %q: no link %q", s.name, a.target)
			}
			in.installImpairment(l, a)
		case actRankCrash, actRankRestart:
			if tg.Ranks == nil {
				return nil, fmt.Errorf("faults: scenario %q has rank actions; use ApplyTargets", s.name)
			}
			t := tg.Ranks.RankTarget(a.target)
			if t == nil {
				return nil, fmt.Errorf("faults: scenario %q: no rank %q", s.name, a.target)
			}
			crash := a.kind == actRankCrash
			span := "fault." + a.kind
			k.At(a.at, sim.PrioNormal, func() {
				in.rec.Emit(metrics.EvFaultInject, a.kind, 0, 0, 0)
				in.instant(span, a.target)
				if crash {
					t.RankCrash()
				} else {
					t.RankRestart()
				}
			})
		case actCtrlLoss, actCtrlCrash, actCtrlRestart:
			if ctrl == nil {
				return nil, fmt.Errorf("faults: scenario %q has control-plane actions; use ApplyWith", s.name)
			}
			t := ctrl.CtrlTarget(a.target)
			if t == nil {
				return nil, fmt.Errorf("faults: scenario %q: no control-plane domain %q", s.name, a.target)
			}
			switch a.kind {
			case actCtrlLoss:
				// The loss window is one span: Begin when the impairment
				// arms, End when it clears. Open-ended windows get an
				// instant marker instead (the span would never end).
				var wsp *spans.Span
				windowed := a.until > a.at
				k.At(a.at, sim.PrioNormal, func() {
					in.rec.Emit(metrics.EvFaultInject, actCtrlLoss, int64(a.prob*1e6), 0, 0)
					if windowed {
						wsp = in.tr.Begin(in.trace, 0, "fault.ctrl-loss", a.target)
						wsp.Int("prob_ppm", int64(a.prob*1e6))
					} else {
						in.instant("fault.ctrl-loss", a.target)
					}
					t.SetCtrlLoss(a.prob)
				})
				if windowed {
					k.At(a.until, sim.PrioNormal, func() {
						in.rec.Emit(metrics.EvFaultInject, actCtrlLossEnd, 0, 0, 0)
						wsp.End()
						t.SetCtrlLoss(0)
					})
				}
			case actCtrlCrash:
				k.At(a.at, sim.PrioNormal, func() {
					in.rec.Emit(metrics.EvFaultInject, actCtrlCrash, 0, 0, 0)
					in.instant("fault.ctrl-crash", a.target)
					t.CtrlCrash()
				})
			case actCtrlRestart:
				k.At(a.at, sim.PrioNormal, func() {
					in.rec.Emit(metrics.EvFaultInject, actCtrlRestart, 0, 0, 0)
					in.instant("fault.ctrl-restart", a.target)
					t.CtrlRestart()
				})
			}
		default:
			panic("faults: unknown action kind " + a.kind)
		}
	}
	return in, nil
}

// MustApply is Apply panicking on error, for experiment code whose
// scenarios are static.
func (s *Scenario) MustApply(net *netsim.Network) *Injection {
	in, err := s.Apply(net)
	if err != nil {
		panic(err)
	}
	return in
}

// MustApplyWith is ApplyWith panicking on error.
func (s *Scenario) MustApplyWith(net *netsim.Network, ctrl CtrlResolver) *Injection {
	in, err := s.ApplyWith(net, ctrl)
	if err != nil {
		panic(err)
	}
	return in
}

// MustApplyTargets is ApplyTargets panicking on error.
func (s *Scenario) MustApplyTargets(net *netsim.Network, tg Targets) *Injection {
	in, err := s.ApplyTargets(net, tg)
	if err != nil {
		panic(err)
	}
	return in
}

// installImpairment adds a random-drop ingress filter to both ends of
// l, active during [a.at, a.until). The filter is installed
// immediately (inactive) and armed/disarmed by scheduled events, since
// interfaces have no filter-removal API.
func (in *Injection) installImpairment(l *netsim.Link, a action) {
	imp := &impairment{in: in, prob: a.prob, corrupt: a.corrupt}
	// Wire loss must precede classification/policing, so prepend.
	l.A().InsertIngress(imp)
	l.B().InsertIngress(imp)
	startKind, endKind := actLossStart, actLossEnd
	spanName := "fault.loss"
	if a.corrupt {
		spanName = "fault.corrupt"
	}
	windowed := a.until > a.at
	in.k.At(a.at, sim.PrioNormal, func() {
		in.rec.Emit(metrics.EvFaultInject, startKind, int64(a.prob*1e6), 0, 0)
		if windowed {
			imp.span = in.tr.Begin(in.trace, 0, spanName, a.target)
			imp.span.Int("prob_ppm", int64(a.prob*1e6))
		} else {
			in.instant(spanName, a.target)
		}
		imp.active = true
	})
	if windowed {
		in.k.At(a.until, sim.PrioNormal, func() {
			in.rec.Emit(metrics.EvFaultInject, endKind, 0, 0, 0)
			imp.span.Int("drops", int64(imp.drops))
			imp.span.End()
			imp.active = false
		})
	}
}

// impairment is the ingress filter implementing loss/corruption
// windows.
type impairment struct {
	in      *Injection
	prob    float64
	corrupt bool
	active  bool
	// span covers the active window; drops counts packets this filter
	// killed during it (exported as a span attribute at window end).
	span  *spans.Span
	drops uint64
}

// Filter implements netsim.IngressFilter.
func (im *impairment) Filter(p *netsim.Packet) *netsim.Packet {
	if !im.active || im.in.rng.Float64() >= im.prob {
		return p
	}
	im.drops++
	if im.corrupt {
		im.in.rec.Emit(metrics.EvFaultInject, actCorruptDrop, int64(p.Size), int64(p.DSCP), 0)
	} else {
		im.in.rec.Emit(metrics.EvFaultInject, actLossDrop, int64(p.Size), int64(p.DSCP), 0)
	}
	return nil
}
