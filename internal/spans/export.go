package spans

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// SortSpans orders spans by (Start, ID): the stable presentation
// order every exporter uses, independent of End/commit order.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].ID < spans[b].ID
	})
}

// Proc is one process lane of a Chrome trace: the spans of one sim
// kernel (one sweep point). PID is the sweep-point index, so a
// multi-point experiment exports the same file at any -parallel
// worker count.
type Proc struct {
	PID   int
	Label string
	Spans []Span
}

// chromeEvent is one trace-event record in the Chrome/Perfetto JSON
// format. Args is a plain map: encoding/json sorts map keys, so the
// encoding is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// category derives the event category from the span name's prefix
// ("rpc.prepare" → "rpc"), which Perfetto uses for colouring.
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace writes the spans of one or more processes as
// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
// Within a process, each trace gets its own thread lane (tid) so
// causally related spans nest visually; parent links ride in
// args.parent. Output is byte-deterministic for a given input.
func WriteChromeTrace(w io.Writer, procs ...Proc) error {
	var events []chromeEvent
	for _, p := range procs {
		spans := make([]Span, len(p.Spans))
		copy(spans, p.Spans)
		SortSpans(spans)

		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: p.PID, TID: 0,
			Args: map[string]any{"name": p.Label},
		})
		// Lane assignment: traces in order of first appearance.
		lane := make(map[TraceID]int, 8)
		for _, s := range spans {
			if _, ok := lane[s.Trace]; !ok {
				tid := len(lane) + 1
				lane[s.Trace] = tid
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: p.PID, TID: tid,
					Args: map[string]any{"name": "trace " + s.Trace.String()},
				})
			}
		}
		for _, s := range spans {
			args := map[string]any{
				"trace":   s.Trace.String(),
				"span":    uint64(s.ID),
				"parent":  uint64(s.Parent),
				"subject": s.Subject,
				"status":  s.Status.String(),
			}
			for _, a := range s.Attrs {
				if a.Str != "" {
					args[a.Key] = a.Str
				} else {
					args[a.Key] = a.Val
				}
			}
			events = append(events, chromeEvent{
				Name: s.Name, Cat: category(s.Name), Ph: "X",
				TS: micros(s.Start), Dur: micros(s.Dur),
				PID: p.PID, TID: lane[s.Trace], Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteTree renders spans as an indented text tree, one block per
// trace, children nested under parents. Spans whose parent is absent
// from the input (evicted, or still active) are promoted to roots.
func WriteTree(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)

	// Group by trace, preserving first-appearance order.
	var order []TraceID
	byTrace := make(map[TraceID][]Span)
	for _, s := range sorted {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, tid := range order {
		group := byTrace[tid]
		if _, err := fmt.Fprintf(w, "trace %s (%d spans)\n", tid, len(group)); err != nil {
			return err
		}
		present := make(map[SpanID]bool, len(group))
		for _, s := range group {
			present[s.ID] = true
		}
		children := make(map[SpanID][]Span)
		var roots []Span
		for _, s := range group {
			if s.Parent != 0 && present[s.Parent] {
				children[s.Parent] = append(children[s.Parent], s)
			} else {
				roots = append(roots, s)
			}
		}
		for _, r := range roots {
			if err := writeTreeNode(w, r, children, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeTreeNode(w io.Writer, s Span, children map[SpanID][]Span, depth int) error {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(&b, "%s %s [%v +%v] %s", s.Name, s.Subject, s.Start, s.Dur, s.Status)
	for _, a := range s.Attrs {
		if a.Str != "" {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
		}
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range children[s.ID] {
		if err := writeTreeNode(w, c, children, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes spans as a JSON array in (Start, ID) order — the
// gqd /traces format.
func WriteJSON(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)
	return json.NewEncoder(w).Encode(sorted)
}

// Collector merges the traces of a multi-kernel experiment sweep into
// one Chrome trace file, keyed by sweep-point index so the merged
// output is identical at any worker count. Add is safe to call from
// concurrent sweep workers.
type Collector struct {
	mu    sync.Mutex
	procs map[int]Proc
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{procs: make(map[int]Proc)}
}

// Add records one sweep point's completed spans under its point
// index. A second Add for the same pid replaces the first.
func (c *Collector) Add(pid int, label string, spans []Span) {
	cp := make([]Span, len(spans))
	copy(cp, spans)
	c.mu.Lock()
	c.procs[pid] = Proc{PID: pid, Label: label, Spans: cp}
	c.mu.Unlock()
}

// Len returns how many points have reported.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.procs)
}

// Procs returns the collected points sorted by PID.
func (c *Collector) Procs() []Proc {
	c.mu.Lock()
	out := make([]Proc, 0, len(c.procs))
	for _, p := range c.procs {
		out = append(out, p)
	}
	c.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].PID < out[b].PID })
	return out
}

// WriteChromeTrace exports every collected point, ordered by PID.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, c.Procs()...)
}
