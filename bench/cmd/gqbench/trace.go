package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"mpichgq/bench/profile"
)

// span is one timed interval of the harness: the workload, a pass, a
// point, a point's setup/run/collect step, or one call into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	spans []span
}

// open starts a span whose end is not known yet and returns its id.
func (t *tracer) open(parent int, name string, start int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: start})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = end
}

// add records a finished span.
func (t *tracer) add(parent int, name string, start, end int64) {
	if id := t.open(parent, name, start); id != 0 {
		t.close(id, end)
	}
}

// spanTotal is one span name's share of the trace: how many spans,
// their total duration, and their self time — duration minus the part
// covered by child spans.
type spanTotal struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (t *tracer) totals() map[string]spanTotal {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		d := s.EndNs - s.StartNs
		tot := out[s.Name]
		tot.Count++
		tot.TotalNs += d
		tot.SelfNs += d - child[s.ID]
		out[s.Name] = tot
	}
	return out
}

// profiler runs the CPU profile of the traced passes.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, sums its CPU time by layer and counts its
// samples.
func (p *profiler) stop() (byLayer map[string]int64, samples int64, err error) {
	pprof.StopCPUProfile()
	parsed, err := profile.Parse(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	byLayer = make(map[string]int64)
	for _, s := range parsed {
		byLayer[profile.Layer(s.Stack)] += s.CPUNs
		samples += s.Count
	}
	return byLayer, samples, nil
}

// writeTrace writes the spans and the raw CPU profile to dir.
func writeTrace(dir string, t *tracer, p *profiler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Totals map[string]spanTotal `json:"totals"`
		Spans  []span               `json:"spans"`
	}{t.totals(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans.json: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), p.buf.Bytes(), 0o644)
}
