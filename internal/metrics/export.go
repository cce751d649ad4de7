package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus dumps every registered series in Prometheus text
// exposition format (version 0.0.4). GaugeFuncs are evaluated at
// write time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	seen := make(map[string]bool)
	for _, e := range r.entries() {
		if !seen[e.name] {
			seen[e.name] = true
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
		}
		if err := writePromEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writePromEntry(w io.Writer, e *entry) error {
	switch e.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", e.name, promLabels(e.labels, "", ""), e.ctr.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", e.name, promLabels(e.labels, "", ""), formatFloat(e.gauge.Value()))
		return err
	case KindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", e.name, promLabels(e.labels, "", ""), formatFloat(e.fn()))
		return err
	case KindHistogram:
		counts, sum, count := e.hist.Snapshot()
		bounds := e.hist.Bounds()
		var cum uint64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, promLabels(e.labels, "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.name, promLabels(e.labels, "", ""), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, promLabels(e.labels, "", ""), count)
		return err
	}
	return nil
}

// promLabels renders {k="v",...}, optionally appending one extra
// pair (used for histogram le).
func promLabels(pairs []string, extraK, extraV string) string {
	if len(pairs) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(pairs[i+1])
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(pairs) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricSnapshot is one series in a JSON snapshot.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter or gauge value.
	Value float64 `json:"value"`
	// Histogram-only fields.
	Buckets []float64 `json:"buckets,omitempty"` // upper bounds
	Counts  []uint64  `json:"counts,omitempty"`  // per bucket, +Inf last
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
}

// EventSnapshot is one flight-recorder event in a JSON snapshot.
type EventSnapshot struct {
	Seq     uint64 `json:"seq"`
	AtNs    int64  `json:"at_ns"`
	Type    string `json:"type"`
	Subject string `json:"subject"`
	V1      int64  `json:"v1,omitempty"`
	V2      int64  `json:"v2,omitempty"`
	V3      int64  `json:"v3,omitempty"`
}

// Snapshot is the JSON export of a registry: every series plus the
// retained flight-recorder events.
type Snapshot struct {
	TakenAtNs         int64            `json:"taken_at_ns"`
	Metrics           []MetricSnapshot `json:"metrics"`
	Events            []EventSnapshot  `json:"events"`
	EventsOverwritten uint64           `json:"events_overwritten,omitempty"`
}

// TakeSnapshot captures the registry's current state.
func (r *Registry) TakeSnapshot() Snapshot {
	s := Snapshot{TakenAtNs: int64(r.clock())}
	for _, e := range r.entries() {
		ms := MetricSnapshot{Name: e.name, Kind: e.kind.String()}
		if len(e.labels) > 0 {
			ms.Labels = make(map[string]string, len(e.labels)/2)
			for i := 0; i < len(e.labels); i += 2 {
				ms.Labels[e.labels[i]] = e.labels[i+1]
			}
		}
		switch e.kind {
		case KindCounter:
			ms.Value = float64(e.ctr.Value())
		case KindGauge:
			ms.Value = e.gauge.Value()
		case KindGaugeFunc:
			ms.Value = e.fn()
		case KindHistogram:
			ms.Counts, ms.Sum, ms.Count = e.hist.Snapshot()
			ms.Buckets = e.hist.Bounds()
		}
		s.Metrics = append(s.Metrics, ms)
	}
	for _, ev := range r.events.Snapshot() {
		s.Events = append(s.Events, ev.Snapshot())
	}
	s.EventsOverwritten = r.events.Dropped()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.TakeSnapshot())
}

// LoadSnapshot parses a snapshot previously produced by WriteJSON —
// the input side of replay tooling like cmd/dvis -from.
func LoadSnapshot(rd io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(rd).Decode(&s); err != nil {
		return nil, fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	return &s, nil
}

// EventsOfType returns the snapshot's events matching the given wire
// name (e.g. "mpi-recv"), preserving order.
func (s *Snapshot) EventsOfType(typ string) []EventSnapshot {
	var out []EventSnapshot
	for _, e := range s.Events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// Span returns the [first, last] event timestamps of the snapshot's
// event log, or zeros if empty.
func (s *Snapshot) Span() (first, last time.Duration) {
	if len(s.Events) == 0 {
		return 0, 0
	}
	return time.Duration(s.Events[0].AtNs), time.Duration(s.Events[len(s.Events)-1].AtNs)
}
