// Package summary computes interprocedural function summaries for the
// analyzers in internal/analysis.
//
// A summary answers, for each declared function of a package and each
// of its parameters (including the method receiver): does the
// parameter reach a settling call (a pool free, a span End), or escape
// the function (stored, returned, aliased, sent, captured, or passed to
// an unknown callee)? Facts are may-facts — "on some path" — which is
// the polarity the ownership engine needs: it must not miss a hand-off.
//
// Facts propagate through intra-package calls: if helper g frees its
// parameter, then f calling g(p) frees p too. Propagation runs over
// the callgraph's strongly connected components in callee-first order,
// iterating each component to a fixpoint, so mutual recursion
// converges (facts only ever grow, and the lattice is finite). Calls that do not statically resolve to a
// declared function of the same package contribute the conservative
// fact — the argument escapes — which is exactly the documented
// hand-off contract the per-function analyzers have always assumed.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"mpichgq/internal/analysis"
	"mpichgq/internal/analysis/callgraph"
)

// Facts is a bitmask of may-facts about one function parameter.
type Facts uint8

const (
	// Escapes: the parameter is stored, returned, aliased, sent on a
	// channel, captured by a closure or a go statement, or passed to an
	// unknown callee — ownership leaves the caller's sight.
	Escapes Facts = 1 << iota
	// Settles: the parameter reaches the recognizer's settling call
	// (FreePacket, End, ...) on some path.
	Settles
)

// A Recognizer identifies the settling call of a resource discipline,
// returning the settled variable. poolownership passes its
// FreePacket/freeSeg matcher, spanlifecycle its End/EndStatus matcher.
type Recognizer struct {
	Name  string
	Match func(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, bool)
}

// A FuncSummary holds the computed facts for one declared function.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl

	// Recv holds the receiver's facts (zero for plain functions and
	// unnamed receivers).
	Recv Facts
	// Params holds per-parameter facts in declaration order.
	Params []Facts
	// Variadic marks a ...T final parameter; argument positions at or
	// beyond it cannot be mapped soundly and default to Escapes at the
	// call site.
	Variadic bool

	paramIdx map[*types.Var]int // receiver mapped to -1
}

// A Set is the complete summary table for one package.
type Set struct {
	Pass   *analysis.Pass
	Graph  *callgraph.Graph
	ByFunc map[*types.Func]*FuncSummary
}

// Compute builds summaries for every declared function of the pass's
// package. rec may be nil when no settling discipline is tracked and
// only escape facts are wanted.
func Compute(pass *analysis.Pass, rec *Recognizer) *Set {
	g := callgraph.Build(pass)
	s := &Set{Pass: pass, Graph: g, ByFunc: make(map[*types.Func]*FuncSummary, len(g.Nodes))}
	for _, n := range g.Nodes {
		s.ByFunc[n.Fn] = newFuncSummary(pass, n)
	}
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				w := &walker{pass: pass, set: s, rec: rec, fs: s.ByFunc[n.Fn]}
				w.walkBody()
				changed = changed || w.changed
			}
		}
	}
	return s
}

// Callee resolves call to the summary of the intra-package function it
// statically invokes, or nil.
func (s *Set) Callee(call *ast.CallExpr) *FuncSummary {
	fn := callgraph.CalleeOf(s.Pass, call)
	if fn == nil {
		return nil
	}
	return s.ByFunc[fn]
}

// ArgFacts maps argument position i of a call with nargs arguments
// (hasEllipsis when the call uses f(xs...)) onto the callee's
// parameter facts. ok is false when the position cannot be mapped
// soundly — variadic overflow, an ellipsis spread, or an arity
// mismatch from a multi-value call — in which case the call site must
// fall back to the conservative escape.
func (fs *FuncSummary) ArgFacts(i, nargs int, hasEllipsis bool) (Facts, bool) {
	if hasEllipsis || nargs != len(fs.Params) && !(fs.Variadic && nargs >= len(fs.Params)-1) {
		return 0, false
	}
	if fs.Variadic && i >= len(fs.Params)-1 {
		return 0, false
	}
	if i < 0 || i >= len(fs.Params) {
		return 0, false
	}
	return fs.Params[i], true
}

func newFuncSummary(pass *analysis.Pass, n *callgraph.Node) *FuncSummary {
	fs := &FuncSummary{
		Fn:       n.Fn,
		Decl:     n.Decl,
		paramIdx: make(map[*types.Var]int),
	}
	sig := n.Fn.Type().(*types.Signature)
	fs.Variadic = sig.Variadic()
	if n.Decl.Recv != nil {
		for _, field := range n.Decl.Recv.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					fs.paramIdx[v] = -1
				}
			}
		}
	}
	idx := 0
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				fs.paramIdx[v] = idx
			}
			idx++
		}
	}
	fs.Params = make([]Facts, idx)
	return fs
}

// walker recomputes one function's facts from its body and the current
// summaries of its callees, recording whether anything grew.
type walker struct {
	pass    *analysis.Pass
	set     *Set
	rec     *Recognizer
	fs      *FuncSummary
	changed bool
}

func (w *walker) walkBody() {
	for _, stmt := range w.fs.Decl.Body.List {
		w.stmt(stmt)
	}
}

func (w *walker) mark(v *types.Var, f Facts) {
	i, ok := w.fs.paramIdx[v]
	if !ok {
		return
	}
	var cur *Facts
	if i == -1 {
		cur = &w.fs.Recv
	} else {
		cur = &w.fs.Params[i]
	}
	if *cur&f != f {
		*cur |= f
		w.changed = true
	}
}

// markIdent applies f when x (after unwrapping parens) is a direct
// reference to a parameter.
func (w *walker) markIdent(x ast.Expr, f Facts) {
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		if v, ok := w.pass.ObjectOf(id).(*types.Var); ok {
			w.mark(v, f)
		}
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.markIdent(r, Escapes)
			w.expr(r)
		}
	case *ast.SendStmt:
		w.markIdent(s.Value, Escapes)
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		w.goCall(s.Call)
	case *ast.DeferStmt:
		w.call(s.Call)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.BlockStmt:
		for _, inner := range s.List {
			w.stmt(inner)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmt(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, x := range s.List {
			w.expr(x)
		}
		for _, inner := range s.Body {
			w.stmt(inner)
		}
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm)
		}
		for _, inner := range s.Body {
			w.stmt(inner)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.markIdent(val, Escapes) // x := p aliases p
						w.expr(val)
					}
				}
			}
		}
	}
}

func (w *walker) assign(s *ast.AssignStmt) {
	for _, l := range s.Lhs {
		w.expr(l)
	}
	for _, r := range s.Rhs {
		// A parameter on the right of any assignment escapes: it is
		// aliased into a new variable or stored through a structure.
		w.markIdent(r, Escapes)
		w.expr(r)
	}
}

func (w *walker) expr(x ast.Expr) {
	if x == nil {
		return
	}
	switch x := x.(type) {
	case *ast.CallExpr:
		w.call(x)
	case *ast.FuncLit:
		// Closure capture: any parameter referenced inside escapes.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := w.pass.ObjectOf(id).(*types.Var); ok {
					w.mark(v, Escapes)
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			w.markIdent(x.X, Escapes)
		}
		w.expr(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.markIdent(elt, Escapes)
			w.expr(elt)
		}
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X) // field read: not an escape of the base
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.SliceExpr:
		w.expr(x.X)
		w.expr(x.Low)
		w.expr(x.High)
		w.expr(x.Max)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.KeyValueExpr:
		w.expr(x.Key)
		w.expr(x.Value)
	}
}

// call handles a (non-go) call expression: a settling call marks its
// variable Settles; a resolved intra-package callee propagates its
// parameter facts onto our parameters; an unknown callee makes every
// parameter argument escape.
func (w *walker) call(call *ast.CallExpr) {
	if w.rec != nil {
		if v, ok := w.rec.Match(w.pass, call); ok {
			w.mark(v, Settles)
			// The settling call consumes its operand; other nested
			// arguments are still walked for their own effects.
			for _, arg := range call.Args {
				if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
					if sv, _ := w.pass.ObjectOf(id).(*types.Var); sv == v {
						continue
					}
				}
				w.expr(arg)
			}
			return
		}
	}

	fs := w.set.Callee(call)

	// Method receiver: propagate the callee's receiver facts when
	// known; an unknown method only reads its receiver (matching the
	// ownership engine's long-standing contract).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fs != nil {
			w.markIdent(sel.X, fs.Recv)
		}
		w.expr(sel.X)
	} else {
		w.expr(call.Fun)
	}

	for i, arg := range call.Args {
		propagated := false
		if fs != nil {
			if facts, ok := fs.ArgFacts(i, len(call.Args), call.Ellipsis.IsValid()); ok {
				w.markIdent(arg, facts)
				propagated = true
			}
		}
		if !propagated {
			// Unknown callee or unmappable position: the argument
			// escapes into it.
			w.markIdent(arg, Escapes)
		}
		w.expr(arg)
	}
}

// goCall handles `go f(args)` / `go func(){...}()`: everything that
// flows in is captured by the new goroutine.
func (w *walker) goCall(call *ast.CallExpr) {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.expr(fl)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// go x.Method(...): the receiver rides into the goroutine.
		w.markIdent(sel.X, Escapes)
		w.expr(sel.X)
	}
	for _, arg := range call.Args {
		w.markIdent(arg, Escapes)
		w.expr(arg)
	}
}
