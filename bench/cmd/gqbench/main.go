// Command gqbench runs one benchmark workload for a fixed time and
// prints its metrics. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 240, "failed": 0, "metrics": {"run_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Usage:
//
//	gqbench -workload fig5-fluid -seed 1 -seconds 20 -trace 0 [-jsonl FILE]
//	gqbench -workload fig5-fluid -seed 1 -seconds 20 -trace 1 [-trace-dir DIR]
//	gqbench compare [-spec BENCHMARK.json] A.jsonl B.jsonl
//
// A run repeats passes over the workload's points until the time is
// spent, each pass in a fresh process, and reports medians over
// passes. With -trace 0 it prints the end-to-end metrics. With
// -trace 1 it runs untraced passes for the first half of the time and
// traced ones, under a CPU profile and an in-memory span recorder, for
// the second, and prints the per-layer metrics. -jsonl appends the
// run's record to a file for gqbench compare. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpichgq/bench"
	"mpichgq/bench/profile"
	"mpichgq/bench/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gqbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gqbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -jsonl file: a result and what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gqbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloads.Names(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced, profiled passes")
	traceDir := fs.String("trace-dir", "", "where traced passes write spans.json and cpu.pprof (default .bench_build/trace/<workload>-<seed>)")
	jsonl := fs.String("jsonl", "", "append the run's record to this file")
	pass := fs.Int("pass", -1, "run only pass `n` and print its report (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	w, err := workloads.New(*name, *seed)
	if err != nil {
		return err
	}
	// One P: the simulator runs one goroutine at a time anyway, so a
	// second P only adds wakeups of an idle P at process handoffs.
	runtime.GOMAXPROCS(1)
	if *pass >= 0 {
		rep, err := runPass(w, *trace == 1, *traceDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rep)
	}

	goldens, err := bench.LoadGoldens()
	if err != nil {
		return err
	}
	dir := *traceDir
	if dir == "" {
		dir = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d", w.Name, *seed))
	}
	p := &parent{name: w.Name, seed: *seed, traceDir: dir, start: time.Now()}
	if p.exe, err = os.Executable(); err != nil {
		return err
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		p.runPasses(budget, 3, false)
		res = p.result(goldens)
		res.Metrics = p.endToEnd()
	} else {
		stale, _ := filepath.Glob(filepath.Join(dir, "pass-*"))
		for _, d := range stale {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
		p.runPasses(budget/2, 2, false)
		p.runPasses(budget, len(p.reps)+2, true)
		res = p.result(goldens)
		res.Metrics = p.perLayer()
		fmt.Fprintf(stdout, "trace: %s\n", dir)
	}
	printHuman(stdout, p, res)
	if *jsonl != "" {
		if err := appendJSONL(*jsonl, record{w.Name, *seed, *trace, res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// parent runs the passes of one run, each in a child process, and
// aggregates their reports.
type parent struct {
	exe      string
	name     string
	seed     int64
	traceDir string
	start    time.Time
	reps     []passReport
	spent    time.Duration // wall time of the passes run so far
}

// runPasses runs passes until the next one would likely end after
// budget from the start of the run, but at least until there are
// minPasses.
func (p *parent) runPasses(budget time.Duration, minPasses int, traced bool) {
	for len(p.reps) < minPasses || time.Since(p.start)+p.spent/time.Duration(len(p.reps)) <= budget {
		t0 := time.Now()
		p.reps = append(p.reps, p.runChild(len(p.reps), traced))
		p.spent += time.Since(t0)
	}
}

// runChild runs pass n in a child process. A child that does not
// report counts as one failed operation.
func (p *parent) runChild(n int, traced bool) passReport {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(p.exe, "-workload", p.name, "-seed", strconv.FormatInt(p.seed, 10),
		"-pass", strconv.Itoa(n), "-trace", t, "-trace-dir", filepath.Join(p.traceDir, fmt.Sprintf("pass-%d", n)))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep passReport
	if err == nil {
		err = json.Unmarshal(bytes.TrimSpace(out), &rep)
	}
	if err != nil {
		return passReport{Traced: traced, Attempted: 1, Failed: 1, Errors: []string{fmt.Sprintf("pass %d: %v", n, err)}}
	}
	return rep
}

// result checks the passes: each must have run without failure and
// produced the digest and work counts of every other pass and, where
// a golden digest is recorded for the seed, that digest. When a
// result is wrong, every operation of the run counts as failed.
func (p *parent) result(goldens bench.Goldens) result {
	res := result{Correct: true}
	golden, haveGolden := goldens.Digest(p.name, p.seed)
	first := p.reps[0]
	for i, r := range p.reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		switch {
		case r.Failed > 0:
			res.Correct = false
		case r.Digest != first.Digest || !maps.Equal(r.Counts, first.Counts):
			res.Correct = false
			p.reps[i].Errors = append(p.reps[i].Errors, fmt.Sprintf("pass %d: digest %s and work counts differ from pass 0", i, r.Digest))
		case haveGolden && r.Digest != golden:
			res.Correct = false
			p.reps[i].Errors = append(p.reps[i].Errors, fmt.Sprintf("pass %d: digest %s, golden %s", i, r.Digest, golden))
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res
}

// split returns the untraced and the traced passes.
func (p *parent) split() (untraced, traced []passReport) {
	for _, r := range p.reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// passMedian is the median over passes of f.
func passMedian(rs []passReport, f func(passReport) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// opPercentile is the q-th percentile of operation time in µs — of
// one call's operations, or of all when call is "" — taken in each
// pass, then the median over passes.
func opPercentile(rs []passReport, call string, q float64) float64 {
	return passMedian(rs, func(r passReport) float64 {
		var us []float64
		for j, ns := range r.OpNs {
			if call == "" || r.CallNames[r.Calls[j]] == call {
				us = append(us, float64(ns)/1e3)
			}
		}
		return percentile(us, q)
	})
}

// sumOfMedians estimates one pass's total from samples every pass
// takes in the same order, one per operation or per point: the median
// of each sample over the passes, summed. A slowdown of the host that
// lasts part of a pass moves that pass's samples but not the medians.
// Failed passes, whose samples are incomplete, are left out.
func sumOfMedians(rs []passReport, samples func(passReport) []float64) float64 {
	var cols [][]float64
	for _, r := range rs {
		if r.Failed == 0 {
			cols = append(cols, samples(r))
		}
	}
	if len(cols) == 0 {
		return 0
	}
	total := 0.0
	col := make([]float64, 0, len(cols))
	for j := range cols[0] {
		col = col[:0]
		for _, c := range cols {
			if j < len(c) {
				col = append(col, c[j])
			}
		}
		total += median(col)
	}
	return total
}

// refScale is the factor that turns a pass's CPU times into the
// reference host's: refSliceNs over the median slice of the pass's
// reference loop.
func refScale(r passReport) float64 { return refSliceNs / median(floats(r.RefNs, 1)) }

// Samples for sumOfMedians, in seconds: operations' wall and CPU time,
// and operations' and set-ups' CPU time scaled to the reference host.
func opWall(r passReport) []float64   { return floats(r.OpNs, 1e9) }
func opCPU(r passReport) []float64    { return floats(r.OpCPUNs, 1e9) }
func opRef(r passReport) []float64    { return floats(r.OpCPUNs, 1e9/refScale(r)) }
func setupRef(r passReport) []float64 { return floats(r.SetupCPUNs, 1e9/refScale(r)) }

// endToEnd computes the metrics a user of the simulator sees: the time
// it takes to run the workload's simulations and to set them up, and
// memory. The times are CPU times scaled to the reference host (see
// refloop.go): on a shared host, wall time also holds the waits for a
// CPU, and CPU time the host's drifting speed, and either varies from
// run to run by more than any bound; both are per-layer metrics.
// Percentiles of single operations are per-layer metrics too: where
// operations of very different cost mix, as in the figure sweeps, the
// median sits in a gap of their distribution and jumps between runs,
// and the tail moved by more than the run time between two sets of
// runs of one commit.
func (p *parent) endToEnd() map[string]metric {
	ps, _ := p.split()
	return map[string]metric{
		"run_s":       {sumOfMedians(ps, opRef), "s"},
		"setup_s":     {sumOfMedians(ps, setupRef), "s"},
		"alloc_mb":    {passMedian(ps, func(r passReport) float64 { return float64(r.AllocBytes) }) / 1e6, "MB"},
		"rss_peak_mb": {passMedian(ps, func(r passReport) float64 { return float64(r.PeakRSSBytes) }) / 1e6, "MB"},
	}
}

// garaCalls names the per-call latency metrics of the GARA book.
var garaCalls = map[string]string{
	workloads.CallReserve: "gara.reserve",
	workloads.CallProbe:   "gara.probe",
	workloads.CallModify:  "gara.modify",
	workloads.CallCancel:  "gara.cancel",
}

// countNames lists the exact work counts, in report order.
func countNames() []string {
	return []string{
		workloads.CountEvents, "netsim.tx_packets", "netsim.drops", "netsim.fluid.loss_mb",
		"tcpsim.segments", "tcpsim.retransmits", "tcpsim.timeouts",
		"diffserv.conform", "diffserv.exceed", "diffserv.drops",
		"mpi.messages", "mpi.mb",
		"gara.reservations", "gara.rejects", workloads.CountSlots,
		"ctrlplane.served", "ctrlplane.shed", "ctrlplane.rpc_attempts", "ctrlplane.rpc_retries", "ctrlplane.msgs_dropped",
		"metrics.flight_events",
	}
}

// perLayer computes the per-layer metrics: host time by layer from
// the profiles of the traced passes, and work counts and single-call
// timings from the untraced ones.
func (p *parent) perLayer() map[string]metric {
	ps, tps := p.split()
	out := make(map[string]metric)
	byLayer := make(map[string]int64)
	var total int64
	var samples int64
	for _, r := range tps {
		for l, ns := range r.LayerNs {
			byLayer[l] += ns
			total += ns
		}
		samples += r.Samples
	}
	for _, l := range profile.Layers() {
		out[l+".self_share"] = metric{ratio(float64(byLayer[l]), float64(total)), "ratio"}
		out[l+".self_s"] = metric{float64(byLayer[l]) / 1e9 / float64(len(tps)), "s"}
	}
	out["trace.samples"] = metric{float64(samples), "count"}
	run := sumOfMedians(ps, opRef)
	out["trace.overhead"] = metric{sumOfMedians(tps, opRef)/run - 1, "ratio"}
	out["run_cpu_s"] = metric{sumOfMedians(ps, opCPU), "s"}
	out["run_wall_s"] = metric{sumOfMedians(ps, opWall), "s"}
	out["host.ref_slice_us"] = metric{passMedian(ps, func(r passReport) float64 { return median(floats(r.RefNs, 1e3)) }), "us"}

	c := p.reps[0].Counts
	for _, name := range countNames() {
		unit := "count"
		if strings.HasSuffix(name, "mb") {
			unit = "MB"
		}
		out[name] = metric{c[name], unit}
	}
	out["sim.kernel.ns_per_event"] = metric{ratio(1e9*run, c[workloads.CountEvents]), "ns"}
	out["gara.admit_ratio"] = metric{ratio(c["gara.reservations"], c["gara.reservations"]+c["gara.rejects"]), "ratio"}
	out["ctrlplane.goodput_ratio"] = metric{ratio(c[workloads.CountStormOK], c[workloads.CountStormOffered]), "ratio"}
	for call, name := range garaCalls {
		out[name+"_us_p50"] = metric{opPercentile(ps, call, 50), "us"}
		if name == "gara.reserve" {
			out[name+"_us_p99"] = metric{opPercentile(ps, call, 99), "us"}
		}
	}
	var snaps []int64
	for _, r := range ps {
		snaps = append(snaps, r.SnapshotNs...)
	}
	out["op_p50_us"] = metric{opPercentile(ps, "", 50), "us"}
	out["op_p99_us"] = metric{opPercentile(ps, "", 99), "us"}
	out["metrics.snapshot_us"] = metric{median(floats(snaps, 1e3)), "us"}
	out["runtime.mallocs"] = metric{passMedian(ps, func(r passReport) float64 { return float64(r.Mallocs) }), "count"}
	out["runtime.gc_cycles"] = metric{passMedian(ps, func(r passReport) float64 { return float64(r.GCCycles) }), "count"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printHuman(w io.Writer, p *parent, res result) {
	seen := make(map[string]bool)
	for _, r := range p.reps {
		for _, e := range r.Errors {
			if !seen[e] {
				seen[e] = true
				fmt.Fprintln(w, "error:", e)
			}
		}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d passes, %d operations, %d failed, correct %v, digest %s\n",
		p.name, p.seed, len(p.reps), res.Attempted, res.Failed, res.Correct, p.reps[0].Digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func appendJSONL(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}
