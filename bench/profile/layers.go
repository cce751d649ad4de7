package profile

import (
	"path"
	"strings"
)

// Layers lists the layers samples are attributed to, in report
// order: the simulator's modules, the benchmark's own code, and three
// runtime buckets for samples with no repo frame.
func Layers() []string {
	return []string{
		"sim.kernel", "sim.proc", "netsim", "netsim.fluid", "tcpsim", "globusio",
		"diffserv", "mpi", "core", "dsrt", "gara", "ctrlplane", "trafficgen",
		"metrics", "spans", "garnet", "other", "bench",
		"runtime.gc", "runtime.sched", "runtime.other",
	}
}

const repoPrefix = "mpichgq/internal/"

// modules maps a package under internal/ to its layer. Packages not
// listed count as "other"; internal/units is a helper every layer
// inlines, so its frames count for their caller.
var modules = map[string]string{
	"sim": "sim.kernel", "netsim": "netsim", "tcpsim": "tcpsim", "globusio": "globusio",
	"diffserv": "diffserv", "mpi": "mpi", "core": "core", "dsrt": "dsrt", "gara": "gara",
	"ctrlplane": "ctrlplane", "trafficgen": "trafficgen", "metrics": "metrics",
	"spans": "spans", "garnet": "garnet",
}

// Layer attributes a stack (innermost frame first) to a layer. The
// innermost repo frame wins, so runtime and standard-library frames
// below it count for it. Within internal/sim, proc.go and cond.go are
// the process-handoff layer; within internal/netsim, fluid.go is the
// fluid solver. A stack with no repo frame goes to runtime.gc,
// runtime.sched or runtime.other.
func Layer(stack []Frame) string {
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if gcFrame(f.Func) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if schedFrame(f.Func) {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// frameLayer is the layer of a repo frame, or "" for any other.
func frameLayer(f Frame) string {
	pkg := funcPackage(f.Func)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "mpichgq/bench"):
		return "bench"
	case !strings.HasPrefix(pkg, repoPrefix):
		return ""
	}
	mod := strings.TrimPrefix(pkg, repoPrefix)
	if mod == "units" {
		return ""
	}
	layer, ok := modules[mod]
	if !ok {
		return "other"
	}
	switch file := path.Base(f.File); {
	case mod == "sim" && (file == "proc.go" || file == "cond.go"):
		return "sim.proc"
	case mod == "netsim" && file == "fluid.go":
		return "netsim.fluid"
	}
	return layer
}

// funcPackage returns the import path of a qualified function name:
// everything before the first dot after the last slash, ignoring type
// arguments.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcFrame reports runtime functions of the garbage collector: marking,
// sweeping, scavenging and write barriers. runtime._GC is the frame
// the profiler records when it cannot unwind a GC thread.
func gcFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range []string{"gc", "_GC", "markroot", "scanobject", "scanblock", "scanstack", "greyobject", "bgsweep", "sweepone", "bgscavenge", "wbBuf", "(*gcWork)", "(*mspan).sweep", "(*sweepLocked)"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// schedFrame reports runtime functions of the goroutine scheduler:
// parking, waking and switching goroutines, and the system monitor.
func schedFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range []string{"schedule", "findRunnable", "park_m", "mcall", "gosched", "goexit", "execute", "gogo", "ready", "goready", "gopark", "stopm", "startm", "wakep", "handoffp", "sysmon", "runqget", "runqput"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
