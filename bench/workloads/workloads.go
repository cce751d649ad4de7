// Package workloads builds the benchmark's workloads from the
// simulator's public APIs. A workload is a fixed list of points, and
// each point is a set-up step, a list of timed operations and a
// collect step. Everything a point does is a pure function of the
// workload seed, so two runs of one seed do identical work and
// produce identical results.
//
// The package reads no wall clock and holds no package-level mutable
// state: timing is the harness's job (cmd/gqbench), which calls into a
// point one step at a time.
package workloads

import (
	"fmt"
	"strings"
	"time"

	"mpichgq/internal/metrics"
)

// Point is one built simulation, or one filled GARA book, ready to
// run. Building it is the point's set-up.
type Point interface {
	// Ops returns the number of timed operations the point runs.
	Ops() int
	// Op runs operation j (0 <= j < Ops, in order) and names the
	// public call it timed.
	Op(j int) (call string, err error)
	// Collect reads the point's results once every operation has run.
	Collect() (Result, error)
	// Registry is the kernel's metrics registry, for work counts.
	Registry() *metrics.Registry
}

// Result is what a point produced.
type Result struct {
	// Record is a canonical text of the point's outputs; the harness
	// digests it, so two runs agree exactly when their records do.
	Record string
	// Counts are the work counts the registry does not hold, by
	// metric name (the Count* constants).
	Counts map[string]float64
}

// Work counts a point reports itself.
const (
	// CountEvents is Kernel.EventsRun: events the kernel executed.
	CountEvents = "sim.kernel.events"
	// CountSlots is the live slot count of the GARNET bottleneck's
	// forward slot table after the point.
	CountSlots = "gara.bottleneck_slots"
	// CountStormOffered and CountStormOK are the storm clients'
	// logical requests issued and admitted.
	CountStormOffered = "ctrlplane.storm_offered"
	CountStormOK      = "ctrlplane.storm_ok"
)

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// Points is the number of points in one pass.
	Points int
	// New builds point i.
	New func(i int) (Point, error)
}

// Names lists the workloads in the order the benchmark runs them.
func Names() []string {
	return []string{"fig5-fluid", "fig5-packet", "admission-storm", "gara-book", "mpi-halo"}
}

// New returns the named workload at benchmark scale. The scales size
// one pass at about two host seconds, so a run of a few tens of
// seconds repeats it several times.
func New(name string, seed int64) (*Workload, error) {
	switch name {
	case "fig5-fluid":
		return Fig5(seed, true, 0.4), nil
	case "fig5-packet":
		return Fig5(seed, false, 0.04), nil
	case "admission-storm":
		return Storm(seed, 0.7, 2), nil
	case "gara-book":
		return Book(seed, 2000, 4000), nil
	case "mpi-halo":
		return Halo(seed, 5000), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %s)", name, strings.Join(Names(), ", "))
}

// Step is the virtual time one timed operation of a figure point
// simulates: the harness advances each simulation in steps, so that a
// point's host time splits into many comparable samples, as when a
// live scenario is stepped. Stepping changes no event order.
const Step = 100 * time.Millisecond

// steps returns how many operations simulate dur in Steps.
func steps(dur time.Duration) int { return int((dur + Step - 1) / Step) }

// stepEnd is where operation j of a run of dur stops.
func stepEnd(j int, dur time.Duration) time.Duration {
	return min(time.Duration(j+1)*Step, dur)
}

// record renders key=value fields in order as one line, for the
// digest.
func record(fields ...any) string {
	var b strings.Builder
	for i := 0; i+1 < len(fields); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", fields[i], fields[i+1])
	}
	b.WriteByte('\n')
	return b.String()
}
