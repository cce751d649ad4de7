package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
)

// daemon owns the scenario kernel and serves its observability state.
// mu serializes every touch of live kernel state: the stepper holds it
// while advancing virtual time, and /metrics and /healthz hold it
// while reading (the metrics registry resolves GaugeFunc closures
// against live simulation objects). /traces and /events read only the
// tracer's completed-span ring and the flight recorder, which carry
// their own locks.
type daemon struct {
	scenario string
	dur      time.Duration

	mu sync.Mutex
	k  *sim.Kernel
	// extras, when set by the scenario builder, adds scenario-specific
	// health fields (admission queue depths, brownout levels) to the
	// /healthz body. Called under mu.
	extras func(map[string]any)

	// closed, set under mu by close, stops the stepper.
	closed   bool
	done     atomic.Bool
	panicked atomic.Bool
	failure  atomic.Value // error string from a failed RunUntil or a panic
}

// step advances the kernel to dur in fixed virtual slices, sleeping
// pace of real time between slices so operators can watch the state
// evolve. It is the only writer of kernel state. A scenario that halts
// (RunUntil error) or panics mid-run leaves the daemon serving its
// last coherent state, with /healthz reporting the failure as 503.
func (d *daemon) step(step, pace time.Duration) {
	defer d.done.Store(true)
	// One virtual slice per call; the deferred recover keeps a panicking
	// scenario from killing the whole daemon — the mutex is released in
	// order, the failure is recorded, and the daemon serves its last
	// coherent state with /healthz reporting 503.
	advance := func() (finished bool) {
		d.mu.Lock()
		defer d.mu.Unlock()
		defer func() {
			if r := recover(); r != nil {
				d.panicked.Store(true)
				d.failure.Store(fmt.Sprint(r))
				finished = true
			}
		}()
		now := d.k.Now()
		if d.closed || now >= d.dur {
			return true
		}
		next := now + step
		if next > d.dur {
			next = d.dur
		}
		if err := d.k.RunUntil(next); err != nil {
			// The kernel converts process panics into RunUntil errors;
			// classify them so /healthz distinguishes a crashed scenario
			// from one that halted on an ordinary error.
			if strings.Contains(err.Error(), "panicked") {
				d.panicked.Store(true)
			}
			d.failure.Store(err.Error())
			return true
		}
		return false
	}
	for !advance() {
		if pace > 0 {
			//lint:ignore determinism pacing is wall-clock by design: it throttles how fast the daemon replays virtual time, and never feeds back into the simulation
			time.Sleep(pace)
		}
	}
}

// close stops the stepper after its current slice and closes the
// kernel, unwinding the scenario's parked processes. The daemon calls
// it on shutdown, once no handler can run.
func (d *daemon) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.k.Close()
}

// mux wires the endpoint set (split out so tests can serve it).
func (d *daemon) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", d.handleHealthz)
	m.HandleFunc("/metrics", d.handleMetrics)
	m.HandleFunc("/traces", d.handleTraces)
	m.HandleFunc("/events", d.handleEvents)
	return m
}

func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tr := d.k.Tracer()
	resp := map[string]any{
		"status":         "ok",
		"scenario":       d.scenario,
		"virtual_dur_ns": d.dur.Nanoseconds(),
		"done":           d.done.Load(),
		"spans":          tr.Len(),
		"spans_active":   tr.Active(),
		"spans_dropped":  tr.Dropped(),
	}
	d.mu.Lock()
	resp["virtual_now_ns"] = d.k.Now().Nanoseconds()
	if d.extras != nil {
		d.extras(resp)
	}
	d.mu.Unlock()
	// A scenario that stopped advancing before its horizon is not a
	// healthy daemon: load balancers and the smoke job read 503 here.
	code := http.StatusOK
	if err := d.failure.Load(); err != nil {
		if d.panicked.Load() {
			resp["status"] = "panicked"
		} else {
			resp["status"] = "halted"
		}
		resp["error"] = err
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = d.k.Metrics().WritePrometheus(w)
}

// handleTraces answers span queries. Parameters:
//
//	resv=<id>      spans of reservation <id>'s trace (decimal GARA id)
//	trace=<hex>    spans of an explicit trace ID
//	class=<c>      spans of one class: gara, rpc, server, co, wd, tcp, fault
//	name=<n>       exact span name (e.g. gara.lease)
//	subject=<s>    exact subject (domain, node, resource type)
//	status=<s>     ok | breached | failed | leaked
//	min_dur=<d>    at least this long (Go duration, virtual time)
//	limit=<n>      keep the most recent n matches (default 250)
//	format=<f>     json (default) or tree (indented text span tree)
func (d *daemon) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f spans.Filter
	if v := q.Get("resv"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "gqd: resv must be a decimal reservation id", http.StatusBadRequest)
			return
		}
		f.Trace = spans.DeriveTrace(spans.NSReservation, id)
	}
	if v := q.Get("trace"); v != "" {
		t, ok := spans.ParseTraceID(v)
		if !ok {
			http.Error(w, "gqd: trace must be a hex trace id", http.StatusBadRequest)
			return
		}
		f.Trace = t
	}
	if v := q.Get("class"); v != "" {
		f.NamePrefix = v + "."
	}
	f.Name = q.Get("name")
	f.Subject = q.Get("subject")
	if v := q.Get("status"); v != "" {
		st, ok := spans.ParseStatus(v)
		if !ok {
			http.Error(w, "gqd: status must be ok, breached, failed, or leaked", http.StatusBadRequest)
			return
		}
		f.Status, f.HasStatus = st, true
	}
	if v := q.Get("min_dur"); v != "" {
		min, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "gqd: min_dur must be a duration (e.g. 50ms)", http.StatusBadRequest)
			return
		}
		f.MinDur = min
	}
	f.Limit = 250
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "gqd: limit must be a positive integer", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	matched := d.k.Tracer().Query(f)
	switch q.Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = spans.WriteJSON(w, matched)
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(matched) == 0 {
			_, _ = w.Write([]byte("(no matching spans)\n"))
			return
		}
		_ = spans.WriteTree(w, matched)
	default:
		http.Error(w, "gqd: format must be json or tree", http.StatusBadRequest)
	}
}

// handleEvents tails the flight recorder. Parameters: type (wire name,
// e.g. ctrl.rpc), subject, since (virtual duration), n (last N,
// default 250).
func (d *daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := metrics.EventFilter{Subject: q.Get("subject"), Last: 250}
	if v := q.Get("type"); v != "" {
		t, ok := metrics.ParseEventType(v)
		if !ok {
			http.Error(w, "gqd: unknown event type "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		f.Type = t
	}
	if v := q.Get("since"); v != "" {
		since, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "gqd: since must be a duration (e.g. 10s)", http.StatusBadRequest)
			return
		}
		f.Since = since
	}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "gqd: n must be a positive integer", http.StatusBadRequest)
			return
		}
		f.Last = n
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(d.k.Metrics().Events().Query(f))
}
