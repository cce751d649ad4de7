// Package metrics is the observability layer shared by every
// simulated subsystem: a registry of counters, gauges, and
// fixed-bucket histograms with cheap label support, plus a flight
// recorder of structured events timestamped with sim-kernel time
// (recorder.go). The recorder keeps its events in a Ring (ring.go),
// the overwrite-oldest record ring the spans package also keeps its
// completed spans in.
//
// Handles are resolved once at setup time (Registry.Counter et al.
// deduplicate by name + label set, so two subsystems asking for the
// same series share one handle) and the update paths — Counter.Inc,
// Gauge.Set, Histogram.Observe, Recorder.Emit — are allocation-free,
// making them safe to call per packet or per segment inside the
// simulator's hot loops.
//
// The package depends only on the standard library and holds no
// global state: each sim kernel owns its own Registry.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types held by a Registry.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindGaugeFunc
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing integer metric. All methods
// are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored so
// a counter can never run backwards).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 metric. All methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Histogram is a fixed-bucket distribution metric. Observations are
// mutex-guarded (a single uncontended lock, no allocation); bucket
// bounds are upper bounds in ascending order, with an implicit +Inf
// bucket appended.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Snapshot returns per-bucket counts (last entry is the +Inf
// bucket), the sum of observed values, and the sample count.
func (h *Histogram) Snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	sum, count = h.sum, h.total
	h.mu.Unlock()
	return counts, sum, count
}

// DefLatencyBuckets covers simulated network/MPI latencies from
// 100 µs to 10 s (values in seconds).
var DefLatencyBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3,
	25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
}

// entry is one registered series.
type entry struct {
	kind   Kind
	name   string
	help   string
	labels []string // flattened key/value pairs, sorted by key
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// Registry holds every registered metric plus the flight recorder.
// Registration methods are idempotent: asking again with the same
// name and label set returns the same handle, so independent
// subsystems (or a subsystem and an experiment harness) can share a
// series without plumbing handles around.
type Registry struct {
	mu      sync.Mutex
	clock   func() time.Duration
	byKey   map[string]*entry
	ordered []*entry
	events  *Recorder
}

// New creates a registry. clock supplies timestamps for flight
// recorder events — pass the sim kernel's Now. A nil clock records
// zero timestamps.
func New(clock func() time.Duration) *Registry {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Registry{
		clock:  clock,
		byKey:  make(map[string]*entry),
		events: &Recorder{Ring: Ring[Event]{buf: make([]Event, DefaultRecorderCapacity)}, clock: clock},
	}
}

// Events returns the registry's flight recorder.
func (r *Registry) Events() *Recorder { return r.events }

// key canonicalizes name + label pairs; also validates and returns
// the sorted pair slice.
func metricKey(name string, labels []string) (string, []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", name, labels))
	}
	pairs := make([]string, len(labels))
	copy(pairs, labels)
	// Sort pairs by key (stable insertion sort over pair indices —
	// label sets are tiny).
	n := len(pairs) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pairs[2*idx[a]] < pairs[2*idx[b]] })
	sorted := make([]string, 0, len(pairs))
	for _, i := range idx {
		sorted = append(sorted, pairs[2*i], pairs[2*i+1])
	}
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i < len(sorted); i += 2 {
		b.WriteByte('{')
		b.WriteString(sorted[i])
		b.WriteByte('=')
		b.WriteString(sorted[i+1])
		b.WriteByte('}')
	}
	return b.String(), sorted
}

// lookup finds or creates the entry for (name, labels), enforcing
// kind consistency.
func (r *Registry) lookup(kind Kind, name, help string, labels []string) *entry {
	key, sorted := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.byKey[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", key, kind, e.kind))
		}
		return e
	}
	e := &entry{kind: kind, name: name, help: help, labels: sorted}
	r.byKey[key] = e
	r.ordered = append(r.ordered, e)
	return e
}

// Counter registers (or finds) a counter. labels are alternating
// key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	e := r.lookup(KindCounter, name, help, labels)
	if e.ctr == nil {
		e.ctr = &Counter{}
	}
	return e.ctr
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	e := r.lookup(KindGauge, name, help, labels)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at
// export time — for cheap live views (queue depth, utilization) that
// would otherwise need a write on every mutation. Re-registering the
// same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	e := r.lookup(KindGaugeFunc, name, help, labels)
	e.fn = fn
}

// Histogram registers (or finds) a fixed-bucket histogram. buckets
// are ascending upper bounds; +Inf is implicit. On a repeat
// registration the original buckets win.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	e := r.lookup(KindHistogram, name, help, labels)
	if e.hist == nil {
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		e.hist = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return e.hist
}

// CounterValue reads a counter by name/labels without creating it.
func (r *Registry) CounterValue(name string, labels ...string) (int64, bool) {
	key, _ := metricKey(name, labels)
	r.mu.Lock()
	e := r.byKey[key]
	r.mu.Unlock()
	if e == nil || e.kind != KindCounter {
		return 0, false
	}
	return e.ctr.Value(), true
}

// entries snapshots the registration list for exporters.
func (r *Registry) entries() []*entry {
	r.mu.Lock()
	out := make([]*entry, len(r.ordered))
	copy(out, r.ordered)
	r.mu.Unlock()
	return out
}
