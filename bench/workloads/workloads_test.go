package workloads

import (
	"testing"

	"mpichgq/internal/experiments"
)

// runPoints builds and runs every point of w and returns them
// collected.
func runPoints(t *testing.T, w *Workload) []Point {
	t.Helper()
	pts := make([]Point, w.Points)
	for i := range pts {
		p, err := w.New(i)
		if err != nil {
			t.Fatalf("%s point %d: %v", w.Name, i, err)
		}
		for j := 0; j < p.Ops(); j++ {
			if _, err := p.Op(j); err != nil {
				t.Fatalf("%s point %d op %d: %v", w.Name, i, j, err)
			}
		}
		if _, err := p.Collect(); err != nil {
			t.Fatalf("%s point %d: %v", w.Name, i, err)
		}
		pts[i] = p
	}
	return pts
}

// TestFig5MatchesExperiments pins the benchmark's copy of the Figure 5
// sweep to experiments.RunFigure5, field for field, in both background
// modes.
func TestFig5MatchesExperiments(t *testing.T) {
	for _, fluid := range []bool{true, false} {
		const scale = 0.02
		want := experiments.RunFigure5(experiments.Config{Seed: 1, TimeScale: scale, Parallel: 1, FluidBackground: fluid})
		w := Fig5(1, fluid, scale)
		pts := runPoints(t, w)
		i := 0
		for _, size := range want.MessageSizes {
			for _, wp := range want.Curves[size] {
				if got := pts[i].(*fig5Point).result(); got != wp {
					t.Errorf("%s size %v point %d: got %+v, want %+v", w.Name, size, i, got, wp)
				}
				i++
			}
			if got := pts[i].(*fig5Point).result().Throughput; got != want.NoContention[size] {
				t.Errorf("%s size %v quiet point: throughput %v, want %v", w.Name, size, got, want.NoContention[size])
			}
			i++
		}
		if i != w.Points {
			t.Errorf("%s: compared %d points of %d", w.Name, i, w.Points)
		}
	}
}

// TestStormMatchesExperiments pins the storm's first repeat to
// experiments.RunFigureI at the repeat's root seed, cell for cell.
func TestStormMatchesExperiments(t *testing.T) {
	const scale = 0.1
	want := experiments.RunFigureI(experiments.Config{Seed: experiments.DeriveSeed(1, 0), TimeScale: scale, Parallel: 1})
	pts := runPoints(t, Storm(1, scale, 1))
	for i := range want.Mults {
		for k, wp := range []experiments.FigureIPoint{want.Controls[i], want.NoCtrl[i]} {
			if got := pts[2*i+k].(*stormPoint).result(); got != wp {
				t.Errorf("cell %d: got %+v, want %+v", 2*i+k, got, wp)
			}
		}
	}
}

// TestBookAndHaloSmall runs small versions of the two workloads that
// have no figure to compare with; their Collect checks the invariants.
func TestBookAndHaloSmall(t *testing.T) {
	runPoints(t, Book(1, 300, 600))
	runPoints(t, Halo(1, 50))
}
