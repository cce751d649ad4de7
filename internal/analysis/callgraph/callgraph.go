// Package callgraph builds the intra-package static call graph that
// the interprocedural summary layer (internal/analysis/summary) runs
// over.
//
// Nodes are the package's own declared functions and methods; edges
// are call sites whose callee statically resolves to another declared
// function of the same package. Calls through function values,
// interface methods, or into other packages have no edge — the
// summary layer treats those callees as unknown and falls back to the
// conservative hand-off contract, exactly as the per-function
// analyzers always have.
//
// The graph exposes its strongly connected components in callee-first
// (reverse topological) order, which is the evaluation order a
// fixpoint over function summaries needs: by the time a component is
// summarised, every function it calls outside the component already
// has a stable summary, and mutual recursion inside the component is
// iterated to a local fixpoint.
package callgraph

import (
	"go/ast"
	"go/types"

	"mpichgq/internal/analysis"
)

// A Node is one declared function or method of the package under
// analysis.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl

	// Out lists static intra-package callees (deduplicated).
	Out []*Node

	outSet map[*Node]bool
	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
}

// A Graph is the intra-package call graph.
type Graph struct {
	// ByFunc maps each declared function object to its node.
	ByFunc map[*types.Func]*Node
	// Nodes holds every node in source declaration order, which keeps
	// everything downstream (SCC order, summary iteration, reported
	// diagnostics) deterministic.
	Nodes []*Node
}

// Build constructs the call graph for the pass's package.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{ByFunc: make(map[*types.Func]*Node)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd, outSet: make(map[*Node]bool)}
			g.ByFunc[fn] = n
			g.Nodes = append(g.Nodes, n)
		}
	}
	for _, n := range g.Nodes {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := CalleeOf(pass, call); callee != nil {
				if target, ok := g.ByFunc[callee]; ok && !n.outSet[target] {
					n.outSet[target] = true
					n.Out = append(n.Out, target)
				}
			}
			return true
		})
	}
	return g
}

// CalleeOf resolves a call expression to the declared function or
// method it statically invokes, or nil when the callee is dynamic
// (function value, interface method) or not a function at all.
// Generic instantiations resolve to their origin declaration.
func CalleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Method calls and package-qualified calls both resolve
		// through the selector; interface methods resolve to the
		// interface's *types.Func, which never matches a declared
		// node, so they fall out naturally.
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// SCCs returns the graph's strongly connected components in
// callee-first order: every edge that leaves a component points to a
// component that appears earlier in the returned slice. Within a
// component, nodes keep declaration order.
func (g *Graph) SCCs() [][]*Node {
	// Tarjan's algorithm; the natural emission order of Tarjan (a
	// component is emitted only after every component it can reach)
	// is exactly the callee-first order required.
	var (
		sccs  [][]*Node
		stack []*Node
		next  = 1
	)
	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		n.index, n.lowlink = next, next
		next++
		stack = append(stack, n)
		n.onStack = true
		for _, m := range n.Out {
			if m.index == 0 {
				strongconnect(m)
				if m.lowlink < n.lowlink {
					n.lowlink = m.lowlink
				}
			} else if m.onStack && m.index < n.lowlink {
				n.lowlink = m.index
			}
		}
		if n.lowlink == n.index {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			// Restore declaration order inside the component for
			// deterministic fixpoint iteration.
			ordered := make([]*Node, 0, len(comp))
			for _, cand := range g.Nodes {
				for _, c := range comp {
					if c == cand {
						ordered = append(ordered, cand)
						break
					}
				}
			}
			sccs = append(sccs, ordered)
		}
	}
	for _, n := range g.Nodes {
		if n.index == 0 {
			strongconnect(n)
		}
	}
	return sccs
}
