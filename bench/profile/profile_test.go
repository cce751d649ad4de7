package profile

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func frames(fns ...string) []Frame {
	var out []Frame
	for _, fn := range fns {
		f := Frame{Func: fn}
		if i := strings.IndexByte(fn, '@'); i >= 0 {
			f = Frame{Func: fn[:i], File: "/src/" + fn[i+1:]}
		}
		out = append(out, f)
	}
	return out
}

func TestLayer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []Frame // innermost first; "func@file" sets the file
		want  string
	}{
		{"innermost repo frame wins",
			frames("mpichgq/internal/netsim.(*Iface).arrive@internal/netsim/link.go", "mpichgq/internal/sim.(*Kernel).run@internal/sim/kernel.go"),
			"netsim"},
		{"runtime frames below a repo frame count for it",
			frames("runtime.mallocgc", "runtime.newobject", "mpichgq/internal/tcpsim.(*Conn).send@internal/tcpsim/conn.go", "mpichgq/internal/sim.(*Kernel).run@internal/sim/kernel.go"),
			"tcpsim"},
		{"gc assist under a repo frame counts for it",
			frames("runtime.gcAssistAlloc", "runtime.mallocgc", "mpichgq/internal/mpi.(*Rank).Send@internal/mpi/p2p.go"),
			"mpi"},
		{"proc.go is the process layer",
			frames("runtime.chanrecv1", "mpichgq/internal/sim.(*Kernel).step@internal/sim/proc.go", "mpichgq/internal/sim.(*Kernel).run@internal/sim/kernel.go"),
			"sim.proc"},
		{"cond.go is the process layer",
			frames("mpichgq/internal/sim.(*Cond).Wait@internal/sim/cond.go"),
			"sim.proc"},
		{"kernel.go is the kernel layer",
			frames("mpichgq/internal/sim.eventHeap.down@internal/sim/kernel.go"),
			"sim.kernel"},
		{"fluid.go is the fluid solver",
			frames("mpichgq/internal/netsim.(*Network).refreshFluid@internal/netsim/fluid.go", "mpichgq/internal/netsim.(*Iface).arrive@internal/netsim/link.go"),
			"netsim.fluid"},
		{"units frames count for their caller",
			frames("mpichgq/internal/units.BitRate.TimeToSend@internal/units/units.go", "mpichgq/internal/diffserv.(*Classifier).Filter@internal/diffserv/classifier.go"),
			"diffserv"},
		{"unlisted internal packages are other",
			frames("mpichgq/internal/intserv.(*WFQ).Enqueue@internal/intserv/wfq.go"),
			"other"},
		{"the benchmark's own code",
			frames("mpichgq/bench/workloads.(*haloPoint).rank@bench/workloads/halo.go", "mpichgq/internal/sim.(*Kernel).SpawnAt.func1@internal/sim/proc.go"),
			"bench"},
		{"the harness's main package",
			frames("sort.Float64s", "main.median@bench/cmd/gqbench/stats.go"),
			"bench"},
		{"generic instantiation",
			frames("mpichgq/internal/experiments.Sweep[go.shape.struct { mpichgq/internal/units.BitRate }]@internal/experiments/parallel.go"),
			"other"},
		{"background mark worker", frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{"background sweeper", frames("runtime.sweepone", "runtime.bgsweep"), "runtime.gc"},
		{"unwind failure in GC", frames("runtime._GC"), "runtime.gc"},
		{"scheduler", frames("runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "runtime.sched"},
		{"system monitor", frames("runtime.usleep", "runtime.sysmon"), "runtime.sched"},
		{"other runtime", frames("runtime.memclrNoHeapPointers", "runtime.(*mheap).alloc"), "runtime.other"},
		{"empty stack", nil, "runtime.other"},
	} {
		if got := Layer(tc.stack); got != tc.want {
			t.Errorf("%s: Layer = %q, want %q", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseRealProfile decodes a profile the runtime wrote and finds
// the function that burned its CPU time.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var total, inSpin, count int64
	for _, s := range samples {
		total += s.CPUNs
		count += s.Count
		for _, f := range s.Stack {
			if strings.HasSuffix(f.Func, "profile.spin") {
				inSpin += s.CPUNs
				if !strings.HasSuffix(f.File, "profile_test.go") {
					t.Errorf("spin's file = %q", f.File)
				}
				break
			}
		}
	}
	if inSpin*2 < total {
		t.Errorf("spin holds %d of %d CPU ns, want most", inSpin, total)
	}
	// 300 ms at the profiler's 100 Hz.
	if count < 15 || count > 45 {
		t.Errorf("%d samples for 300 ms of CPU", count)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a profile")); err == nil {
		t.Error("Parse accepted garbage")
	}
}
