package callgraph

import (
	"path/filepath"
	"testing"

	"mpichgq/internal/analysis"
)

func buildFixture(t *testing.T) *Graph {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "a")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		ImportPath: pkg.ImportPath,
	}
	return Build(pass)
}

func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return nil
}

func callees(n *Node) map[string]bool {
	out := make(map[string]bool, len(n.Out))
	for _, m := range n.Out {
		out[m.Fn.Name()] = true
	}
	return out
}

func TestBuildEdges(t *testing.T) {
	g := buildFixture(t)
	if len(g.Nodes) != 8 {
		t.Errorf("got %d nodes, want 8", len(g.Nodes))
	}
	cases := []struct {
		fn   string
		out  []string
		none []string
	}{
		{"run", []string{"step", "finish"}, nil},
		{"finish", []string{"report"}, nil},
		{"ping", []string{"pong"}, nil},
		{"pong", []string{"ping"}, nil},
		{"dynamic", nil, []string{"step", "report"}}, // dynamic calls: no edges
		{"root", []string{"run", "ping"}, nil},
	}
	for _, c := range cases {
		n := nodeByName(t, g, c.fn)
		got := callees(n)
		for _, want := range c.out {
			if !got[want] {
				t.Errorf("%s: missing edge to %s (got %v)", c.fn, want, got)
			}
		}
		if c.out == nil && len(got) != 0 {
			t.Errorf("%s: expected no callees, got %v", c.fn, got)
		}
	}
	// Only run calls step.
	step := nodeByName(t, g, "step")
	for _, n := range g.Nodes {
		for _, callee := range n.Out {
			if callee == step && n.Fn.Name() != "run" {
				t.Errorf("%s calls step; only run does", n.Fn.Name())
			}
		}
	}
}

func TestSCCsCalleeFirst(t *testing.T) {
	g := buildFixture(t)
	sccs := g.SCCs()

	// Every node appears exactly once.
	seen := make(map[*Node]int)
	for i, comp := range sccs {
		if len(comp) == 0 {
			t.Fatalf("empty SCC at %d", i)
		}
		for _, n := range comp {
			if _, dup := seen[n]; dup {
				t.Errorf("node %s in two SCCs", n.Fn.Name())
			}
			seen[n] = i
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Errorf("SCCs cover %d of %d nodes", len(seen), len(g.Nodes))
	}

	// ping and pong share a component; everything else is singleton.
	ping := nodeByName(t, g, "ping")
	pong := nodeByName(t, g, "pong")
	if seen[ping] != seen[pong] {
		t.Errorf("ping (scc %d) and pong (scc %d) should share an SCC", seen[ping], seen[pong])
	}
	if got := len(sccs[seen[ping]]); got != 2 {
		t.Errorf("ping/pong SCC has %d members, want 2", got)
	}

	// Callee-first: every edge points into the same or an earlier SCC.
	for _, comp := range sccs {
		for _, n := range comp {
			for _, m := range n.Out {
				if seen[m] > seen[n] {
					t.Errorf("edge %s -> %s violates callee-first order (scc %d -> %d)",
						n.Fn.Name(), m.Fn.Name(), seen[n], seen[m])
				}
			}
		}
	}
}
