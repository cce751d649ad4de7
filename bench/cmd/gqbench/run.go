package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"mpichgq/bench/workloads"
	"mpichgq/internal/metrics"
)

// passReport is what one pass of the workload measured and produced.
// A pass runs in a process of its own, so that passes neither share
// a heap nor see the goroutines earlier simulations left parked, and
// reports back to the parent as one JSON line.
type passReport struct {
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// SetupCPUNs is each point's set-up CPU time, OpCPUNs each timed
	// operation's CPU time and OpNs its wall time, in order; Calls
	// names the public call of each operation, by index into
	// CallNames.
	SetupCPUNs []int64  `json:"setup_cpu_ns"`
	OpCPUNs    []int64  `json:"op_cpu_ns"`
	OpNs       []int64  `json:"op_ns"`
	Calls      []int    `json:"calls"`
	CallNames  []string `json:"call_names"`
	// AllocBytes and Mallocs are allocated during the timed
	// operations; GCCycles complete during the whole pass.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint64 `json:"gc_cycles"`
	// PeakRSSBytes is the pass process's peak resident set size.
	PeakRSSBytes int64              `json:"peak_rss_bytes"`
	Digest       string             `json:"digest"`
	Counts       map[string]float64 `json:"counts"`
	SnapshotNs   []int64            `json:"snapshot_ns"`
	// LayerNs is the profile's CPU time by layer (traced passes).
	LayerNs map[string]int64 `json:"layer_ns,omitempty"`
	Samples int64            `json:"samples,omitempty"`
	// RefNs is the CPU time of each slice of the reference loop.
	RefNs []int64 `json:"ref_ns"`
}

// passRunner runs one pass of a workload, timing every step.
type passRunner struct {
	w     *workloads.Workload
	start time.Time
	tr    *tracer // nil unless the pass is traced
	rep   passReport
	rt    []rtmetrics.Sample
	ref   *refLoop
}

// runPass runs every point of w once. A traced pass records spans
// and a CPU profile and writes both to traceDir.
func runPass(w *workloads.Workload, traced bool, traceDir string) (passReport, error) {
	r := &passRunner{
		w:     w,
		start: time.Now(),
		ref:   newRefLoop(),
		rep: passReport{
			Traced: traced,
			Counts: make(map[string]float64),
		},
		rt: []rtmetrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
	var prof *profiler
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return r.rep, err
		}
		r.tr = &tracer{}
	}
	_, _, gc0 := r.runtimeCounters()
	id := r.tr.open(0, w.Name, r.now())
	h := sha256.New()
	for i := 0; i < w.Points; i++ {
		r.point(i, id, h)
	}
	r.tr.close(id, r.now())
	_, _, gc1 := r.runtimeCounters()
	r.rep.GCCycles = gc1 - gc0
	r.rep.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	if traced {
		var err error
		if r.rep.LayerNs, r.rep.Samples, err = prof.stop(); err != nil {
			return r.rep, err
		}
		if err := writeTrace(traceDir, r.tr, prof); err != nil {
			return r.rep, err
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.rep.PeakRSSBytes = ru.Maxrss * 1024 // Linux reports KiB
	}
	return r.rep, nil
}

// now is host nanoseconds since the pass started (monotonic).
func (r *passRunner) now() int64 { return int64(time.Since(r.start)) }

// runtimeCounters reads allocated bytes, allocated objects and
// completed GC cycles.
func (r *passRunner) runtimeCounters() (bytes, objects, cycles uint64) {
	rtmetrics.Read(r.rt)
	return r.rt[0].Value.Uint64(), r.rt[1].Value.Uint64(), r.rt[2].Value.Uint64()
}

// callIndex interns a call name.
func (r *passRunner) callIndex(call string) int {
	for i, c := range r.rep.CallNames {
		if c == call {
			return i
		}
	}
	r.rep.CallNames = append(r.rep.CallNames, call)
	return len(r.rep.CallNames) - 1
}

// refSlice runs one slice of the reference loop, as a span under
// parent.
func (r *passRunner) refSlice(parent int) {
	s := r.now()
	r.rep.RefNs = append(r.rep.RefNs, r.ref.slice())
	r.tr.add(parent, "bench.refloop", s, r.now())
}

func (r *passRunner) fail(ops int, format string, args ...any) {
	r.rep.Failed += ops
	if len(r.rep.Errors) < 10 {
		r.rep.Errors = append(r.rep.Errors, fmt.Sprintf(format, args...))
	}
}

// point sets up, runs and collects point i, timing each step and
// each operation. The digest covers the point's result record.
func (r *passRunner) point(i, parent int, h hash.Hash) {
	id := r.tr.open(parent, fmt.Sprintf("point %d", i), r.now())
	defer func() { r.tr.close(id, r.now()) }()

	r.refSlice(id)
	c0, t0 := cpuNow(), r.now()
	pt, err := setup(r.w, i)
	t1, c1 := r.now(), cpuNow()
	r.rep.SetupCPUNs = append(r.rep.SetupCPUNs, c1-c0)
	r.tr.add(id, "setup", t0, t1)
	if err != nil {
		r.rep.Attempted++
		r.fail(1, "point %d setup: %v", i, err)
		return
	}

	n := pt.Ops()
	r.rep.Attempted += n
	runID := r.tr.open(id, "run", t1)
	b0, m0, _ := r.runtimeCounters()
	for j := 0; j < n; j++ {
		if j%refEvery == 0 {
			r.refSlice(runID)
		}
		cs, s := cpuNow(), r.now()
		call, err := op(pt, j)
		e, ce := r.now(), cpuNow()
		r.rep.OpNs = append(r.rep.OpNs, e-s)
		r.rep.OpCPUNs = append(r.rep.OpCPUNs, ce-cs)
		r.rep.Calls = append(r.rep.Calls, r.callIndex(call))
		r.tr.add(runID, call, s, e)
		if err != nil {
			r.fail(n-j, "point %d op %d (%s): %v", i, j, call, err)
			r.tr.close(runID, r.now())
			return
		}
	}
	b1, m1, _ := r.runtimeCounters()
	r.rep.AllocBytes += b1 - b0
	r.rep.Mallocs += m1 - m0
	r.tr.close(runID, r.now())

	colID := r.tr.open(id, "collect", r.now())
	defer func() { r.tr.close(colID, r.now()) }()
	res, err := collect(pt)
	if err != nil {
		r.fail(n, "point %d collect: %v", i, err)
		return
	}
	reg := pt.Registry()
	s0 := r.now()
	snap := reg.TakeSnapshot()
	s1 := r.now()
	r.tr.add(colID, "metrics.Registry.TakeSnapshot", s0, s1)
	r.rep.SnapshotNs = append(r.rep.SnapshotNs, s1-s0)
	for k, v := range registryCounts(snap, reg.Events().Seq()) {
		r.rep.Counts[k] += v
	}
	for k, v := range res.Counts {
		r.rep.Counts[k] += v
	}
	h.Write([]byte(res.Record))
}

// setup, op and collect turn a panic in a layer into an error.
func setup(w *workloads.Workload, i int) (pt workloads.Point, err error) {
	defer recoverTo(&err)
	return w.New(i)
}

func op(pt workloads.Point, j int) (call string, err error) {
	defer recoverTo(&err)
	return pt.Op(j)
}

func collect(pt workloads.Point) (res workloads.Result, err error) {
	defer recoverTo(&err)
	return pt.Collect()
}

func recoverTo(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

// registryCounts sums a kernel registry's counters over every label
// set into the work counts the registry holds.
func registryCounts(snap metrics.Snapshot, flightEvents uint64) map[string]float64 {
	sum := make(map[string]float64)
	for _, m := range snap.Metrics {
		if m.Kind == "counter" {
			sum[m.Name] += m.Value
		}
	}
	return map[string]float64{
		"netsim.tx_packets":      sum["netsim_tx_packets_total"],
		"netsim.drops":           sum["netsim_egress_drops_total"] + sum["netsim_ingress_drops_total"] + sum["netsim_down_drops_total"] + sum["netsim_no_route_drops_total"],
		"netsim.fluid.loss_mb":   sum["netsim_fluid_loss_bytes_total"] / 1e6,
		"tcpsim.segments":        sum["tcp_segments_sent_total"],
		"tcpsim.retransmits":     sum["tcp_retransmits_total"],
		"tcpsim.timeouts":        sum["tcp_timeouts_total"],
		"diffserv.conform":       sum["diffserv_conform_packets_total"],
		"diffserv.exceed":        sum["diffserv_exceed_packets_total"],
		"diffserv.drops":         sum["diffserv_police_drops_total"],
		"mpi.messages":           sum["mpi_sent_messages_total"],
		"mpi.mb":                 sum["mpi_sent_bytes_total"] / 1e6,
		"gara.reservations":      sum["gara_reservations_total"],
		"gara.rejects":           sum["gara_admission_rejects_total"],
		"ctrlplane.served":       sum["admission_served_total"],
		"ctrlplane.shed":         sum["admission_shed_total"],
		"ctrlplane.rpc_attempts": sum["ctrl_rpc_attempts_total"],
		"ctrlplane.rpc_retries":  sum["ctrl_rpc_retries_total"],
		"ctrlplane.msgs_dropped": sum["ctrl_msgs_dropped_total"],
		"metrics.flight_events":  float64(flightEvents),
	}
}
