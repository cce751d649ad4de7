// Package spans is the causal-tracing layer shared by every simulated
// subsystem: deterministic, sim-clock-timestamped spans with
// parent/child links, typed attributes, and a terminal status.
//
// A trace groups the spans of one logical story — the lifetime of a
// reservation, one two-phase co-reservation attempt, a watchdog
// breach/repair episode, a fault-injection scenario, or a TCP flow.
// Trace IDs are derived by splitmix64-style hashing of stable
// simulation identifiers (DeriveTrace / DeriveTraceString), never from
// wall clocks or ambient randomness, so two runs at the same seed
// produce bit-identical traces regardless of host or worker count.
//
// The Tracer is disabled by default: Begin returns a nil *Span and
// every *Span method is a nil-safe no-op, so instrumented hot paths
// pay one atomic load when tracing is off. Each sim kernel owns one
// Tracer (sim.Kernel.Tracer()) whose clock is the kernel's virtual
// clock; span IDs are allocated from a per-tracer counter, which is
// deterministic because a kernel admits exactly one runnable
// goroutine at a time.
//
// Completed spans land in a metrics.Ring (oldest evicted first,
// Dropped reports how many) that concurrent readers — the gqd daemon's
// HTTP handlers — may Snapshot or Query while the simulation is still
// running. The ring is allocated when tracing is first enabled (or
// resized), so a kernel that never traces pays nothing for it. A Span
// is also its own JSON wire form (WriteJSON, gqd /traces).
//
// The package depends on the standard library and on internal/metrics
// for its ring. Its only global is an empty ring that stands in for a
// tracer's ring before one exists.
package spans

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpichgq/internal/metrics"
)

// TraceID identifies a trace: the set of causally related spans that
// tell one story. Zero means "no trace".
type TraceID uint64

// String renders the trace ID the way exporters and gqd print it.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalText encodes the trace ID in its String form (the JSON wire
// form).
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, bool) {
	var v uint64
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return TraceID(v), true
}

// SpanID identifies a span within its tracer. Zero means "no parent".
type SpanID uint64

// Status is a span's terminal disposition.
type Status uint8

// Span statuses. The zero value is StatusOK so the common success
// path needs no explicit SetStatus call.
const (
	// StatusOK: the operation completed as intended.
	StatusOK Status = iota
	// StatusBreached: the operation completed but a QoS promise was
	// violated during it (watchdog breach, recovery episode).
	StatusBreached
	// StatusFailed: the operation failed (RPC deadline, admission
	// reject, aborted prepare, rollback).
	StatusFailed
	// StatusLeaked: the operation was abandoned without an explicit
	// end (an expired lease reclaimed by the server).
	StatusLeaked
)

var statusNames = [...]string{
	StatusOK:       "ok",
	StatusBreached: "breached",
	StatusFailed:   "failed",
	StatusLeaked:   "leaked",
}

// String returns the status's wire name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// MarshalText encodes the status by its wire name.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseStatus maps a wire name back to its Status.
func ParseStatus(s string) (Status, bool) {
	for i, name := range statusNames {
		if name == s {
			return Status(i), true
		}
	}
	return 0, false
}

// Namespace partitions the trace-ID space so the same numeric key in
// different subsystems cannot collide.
type Namespace uint64

// Trace-ID namespaces.
const (
	// NSReservation keys traces by GARA reservation ID.
	NSReservation Namespace = iota + 1
	// NSCoReserve keys traces by coordinator attempt number.
	NSCoReserve
	// NSWatchdog keys traces by (rank, context, episode) of a QoS
	// watchdog breach/repair loop.
	NSWatchdog
	// NSFault keys traces by fault-scenario name.
	NSFault
	// NSFlow keys traces by TCP 4-tuple hash.
	NSFlow
	// NSRank keys traces by MPI world rank: one trace tells the
	// crash/restart story of one rank across its incarnations.
	NSRank
)

// mix is the splitmix64 output finalizer (same construction as
// experiments.DeriveSeed): a bijective avalanche over 64 bits.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveTrace deterministically maps a stable simulation identifier
// (reservation ID, attempt counter, flow hash) to a trace ID. No wall
// clock, no ambient randomness: the same (ns, key) always yields the
// same ID, on any host, at any worker count.
func DeriveTrace(ns Namespace, key uint64) TraceID {
	return TraceID(mix(uint64(ns)*0x9e3779b97f4a7c15 + mix(key+0x9e3779b97f4a7c15)))
}

// DeriveTraceString is DeriveTrace for string keys (scenario names,
// link names): FNV-1a folded through the same finalizer.
func DeriveTraceString(ns Namespace, s string) TraceID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return DeriveTrace(ns, h)
}

// Context carries a trace across a propagation boundary — a
// control-plane request struct, a server-side dispatch — so callee
// spans parent under the caller's span. The zero Context propagates
// nothing.
type Context struct {
	Trace  TraceID
	Parent SpanID
}

// Valid reports whether the context names a trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Attr is one typed span attribute. Exactly one of Str/Val is
// meaningful; Str == "" means the attribute is numeric.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Val int64  `json:"val,omitempty"`
}

// Span is one timed operation. Fields are populated by the Tracer;
// instrumentation sites interact through the nil-safe methods, so a
// site needs no "is tracing on?" branching of its own. The JSON tags
// are the gqd /traces wire form.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      SpanID  `json:"span"`
	Parent  SpanID  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Subject string  `json:"subject,omitempty"`
	// Start is the sim-kernel time Begin was called; Dur the virtual
	// time until End.
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Status Status        `json:"status"`
	Attrs  []Attr        `json:"attrs,omitempty"`

	tr    *Tracer
	ended bool
}

// SpanID returns the span's ID, or zero for a nil span — the form
// instrumentation uses to parent children under a possibly-disabled
// span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.ID
}

// TraceID returns the span's trace, or zero for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.Trace
}

// Ctx returns the span's propagation context (zero for nil).
func (s *Span) Ctx() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.Trace, Parent: s.ID}
}

// SetStatus records the span's terminal disposition. Nil-safe;
// returns the span for chaining.
func (s *Span) SetStatus(st Status) *Span {
	if s != nil {
		s.Status = st
	}
	return s
}

// Int attaches a numeric attribute. Nil-safe; returns the span.
func (s *Span) Int(key string, v int64) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Val: v})
	}
	return s
}

// Str attaches a string attribute (val must be interned or computed
// at setup time — same contract as Recorder.Emit subjects). Nil-safe.
func (s *Span) Str(key, val string) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Str: val})
	}
	return s
}

// Attr returns the named attribute and whether it exists.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// End completes the span at the current sim time and commits it to
// the tracer's ring. Idempotent and nil-safe: the second End (or an
// End on a disabled-tracer nil handle) is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = s.tr.clock() - s.Start
	s.tr.commit(s)
}

// EndStatus sets the status and ends the span in one call.
func (s *Span) EndStatus(st Status) {
	if s == nil {
		return
	}
	s.Status = st
	s.End()
}

// DefaultCapacity is the completed-span ring size a fresh Tracer
// starts with; long daemon runs raise it via SetCapacity.
const DefaultCapacity = 8192

// Tracer allocates span IDs, timestamps spans from an injected clock
// (the sim kernel's virtual Now), and retains completed spans in a
// ring for queries and export. Safe for one writer (the kernel
// goroutine) plus any number of concurrent readers.
type Tracer struct {
	clock   func() time.Duration
	enabled atomic.Bool

	mu     sync.Mutex
	nextID SpanID
	active int
	size   int                 // ring capacity
	ring   *metrics.Ring[Span] // nil until tracing is enabled or resized
}

// New creates a disabled tracer. clock supplies timestamps — pass the
// sim kernel's Now. A nil clock records zero timestamps.
func New(clock func() time.Duration) *Tracer {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Tracer{clock: clock, size: DefaultCapacity}
}

// SetEnabled turns tracing on or off. Enable before the run starts;
// spans begun while disabled are lost (their handles are nil).
func (t *Tracer) SetEnabled(on bool) {
	if on {
		t.mu.Lock()
		if t.ring == nil {
			t.ring = metrics.NewRing[Span](t.size)
		}
		t.mu.Unlock()
	}
	t.enabled.Store(on)
}

// Enabled reports whether Begin returns live spans.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Begin opens a span. Returns nil when tracing is disabled — every
// *Span method tolerates that, so call sites never branch.
func (t *Tracer) Begin(trace TraceID, parent SpanID, name, subject string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	start := t.clock()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.active++
	t.mu.Unlock()
	return &Span{
		Trace: trace, ID: id, Parent: parent,
		Name: name, Subject: subject, Start: start, tr: t,
	}
}

// commit moves an ended span into the ring, which exists: the span
// was begun with tracing enabled.
func (t *Tracer) commit(s *Span) {
	rec := *s
	rec.tr = nil
	t.mu.Lock()
	t.active--
	ring := t.ring
	t.mu.Unlock()
	ring.Put(rec)
}

// noSpans stands in for the ring of a tracer that has never been
// enabled or resized: it retains nothing.
var noSpans = metrics.NewRing[Span](1)

// spans returns the completed-span ring, or noSpans before it exists.
func (t *Tracer) spans() *metrics.Ring[Span] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		return noSpans
	}
	return t.ring
}

// Len returns how many completed spans the ring retains.
func (t *Tracer) Len() int { return t.spans().Len() }

// Active returns how many spans are begun but not yet ended.
func (t *Tracer) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// Dropped returns how many completed spans wraparound has evicted.
func (t *Tracer) Dropped() uint64 { return t.spans().Dropped() }

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// SetCapacity resizes the ring, retaining the most recent spans.
func (t *Tracer) SetCapacity(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.size = max(n, 1)
	if t.ring == nil {
		t.ring = metrics.NewRing[Span](t.size)
	} else {
		t.ring.SetCapacity(t.size)
	}
}

// Snapshot returns every retained completed span in commit order
// (which is End order — children before parents).
func (t *Tracer) Snapshot() []Span { return t.spans().Snapshot() }

// Filter selects spans for Query. The zero Filter matches everything.
type Filter struct {
	// Trace, when nonzero, matches only that trace.
	Trace TraceID
	// Name, when nonempty, matches the span name exactly.
	Name string
	// NamePrefix, when nonempty, matches span names by prefix
	// ("rpc." selects every RPC span).
	NamePrefix string
	// Subject, when nonempty, matches the span subject exactly.
	Subject string
	// Status is consulted only when HasStatus is set (StatusOK is the
	// zero value, so an explicit flag is needed to filter on it).
	Status    Status
	HasStatus bool
	// MinDur, when positive, keeps only spans at least that long.
	MinDur time.Duration
	// Limit, when positive, caps the result count (most recent kept).
	Limit int
}

func (f Filter) match(s *Span) bool {
	if f.Trace != 0 && s.Trace != f.Trace {
		return false
	}
	if f.Name != "" && s.Name != f.Name {
		return false
	}
	if f.NamePrefix != "" && (len(s.Name) < len(f.NamePrefix) || s.Name[:len(f.NamePrefix)] != f.NamePrefix) {
		return false
	}
	if f.Subject != "" && s.Subject != f.Subject {
		return false
	}
	if f.HasStatus && s.Status != f.Status {
		return false
	}
	if f.MinDur > 0 && s.Dur < f.MinDur {
		return false
	}
	return true
}

// Query returns retained spans matching f, in commit order. With a
// Limit it keeps the most recent matches.
func (t *Tracer) Query(f Filter) []Span { return t.spans().Select(f.match, f.Limit) }

// Trace returns every retained span of one trace, sorted by
// (Start, ID) — the order exporters and operators want.
func (t *Tracer) Trace(id TraceID) []Span {
	out := t.Query(Filter{Trace: id})
	SortSpans(out)
	return out
}
