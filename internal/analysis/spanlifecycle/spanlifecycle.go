// Package spanlifecycle defines an analyzer enforcing the causal-span
// lifecycle discipline from docs/observability.md.
//
// Every span opened with Tracer.Begin must, on every control-flow
// path, either be closed with End/EndStatus or handed off (stored in
// a struct field for a later phase to close, passed to a call,
// returned, or captured by a closure). A span that is begun and then
// dropped stays "active" forever: it never reaches the completed-span
// ring, silently vanishes from trace queries, and inflates the
// tracer's Active() count — the tracing layer's equivalent of a goroutine
// leak. Because End is idempotent by design, closing twice is not an
// error; only the never-closed path is.
//
// The flow-sensitive tracking lives in the shared ownership engine
// (internal/analysis/ownership); this package supplies the span
// recognition rules:
//
//   - an allocation is a call whose result is a *Span and whose
//     method chain is rooted at a Begin method — so the fluent form
//     tr.Begin(...).Int("k", v) is tracked just like a plain Begin;
//   - a settle is an End or EndStatus method call whose receiver
//     chain is rooted at the tracked variable (sp.Int(1).End()
//     settles sp);
//   - a bare Begin chain discarded as a statement without a
//     terminating End/EndStatus is reported immediately.
package spanlifecycle

import (
	"go/ast"
	"go/types"

	"mpichgq/internal/analysis"
	"mpichgq/internal/analysis/ownership"
	"mpichgq/internal/analysis/summary"
)

// Analyzer reports span-lifecycle violations.
var Analyzer = &analysis.Analyzer{
	Name: "spanlifecycle",
	Doc: `enforce that every Tracer.Begin span is Ended or handed off on all paths

Tracks every local bound to a Begin call (including fluent
Begin(...).Int(...) chains) and reports:

  - a leak when some path reaches a return (or the end of the
    variable's scope) with the span neither Ended nor handed off;
  - a Begin chain evaluated as a bare statement whose result is
    discarded without End/EndStatus.

Storing the span in a struct field, passing it to a call, or
returning it counts as a handoff; the receiver becomes responsible
for closing it. End is idempotent, so double-close is not checked.`,
	Run: run,
}

var endMethods = map[string]bool{
	"End":       true,
	"EndStatus": true,
}

func run(pass *analysis.Pass) error {
	// Interprocedural summaries track End/EndStatus through
	// same-package helpers: closeWith(sp, st) settles the span, while
	// a helper that only reads it leaves the close obligation — and
	// the leak report — with the caller.
	sums := summary.Compute(pass, &summary.Recognizer{
		Match: func(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, bool) {
			v, _, ok := endCall(pass, call)
			return v, ok
		},
	})
	return ownership.Run(pass, ownership.Rules{
		Alloc:         beginCall,
		Settle:        endCall,
		SettleName:    func(string) string { return "End/EndStatus" },
		ReportDiscard: true,
		Summaries:     sums,
	})
}

// isSpanPtr reports whether t is a pointer to a named type called
// Span — the tracer handle type (matched structurally so testdata
// fixtures can define their own).
func isSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// beginCall reports whether expr is a span-opening call: a method
// chain returning *Span whose root is a Begin method. The chain walk
// lets fluent attribute setters (Int, Str, SetStatus) ride along;
// a chain terminated by End/EndStatus returns nothing and is
// therefore never an allocation.
func beginCall(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok || !isSpanPtr(pass.TypesInfo.TypeOf(call)) {
		return "", false
	}
	for {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return "", false
		}
		if sel.Sel.Name == "Begin" {
			return "Begin", true
		}
		// A fluent setter: keep walking toward the chain root. Only a
		// *Span-valued receiver call can continue the chain.
		inner, ok := sel.X.(*ast.CallExpr)
		if !ok || !isSpanPtr(pass.TypesInfo.TypeOf(inner)) {
			return "", false
		}
		call = inner
	}
}

// endCall matches sp.End() / sp.EndStatus(st) — including through a
// fluent chain like sp.Int(1).End() — and returns the closed span
// variable.
func endCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !endMethods[sel.Sel.Name] {
		return nil, "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal || !isSpanPtr(selection.Recv()) {
		return nil, "", false
	}
	// Unwind the receiver chain to its root identifier.
	recv := sel.X
	for {
		switch x := recv.(type) {
		case *ast.CallExpr:
			// Only a fluent *Span-valued setter continues the chain.
			inner, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !isSpanPtr(pass.TypesInfo.TypeOf(x)) {
				return nil, "", false
			}
			recv = inner.X
		case *ast.ParenExpr:
			recv = x.X
		case *ast.Ident:
			v, _ := pass.ObjectOf(x).(*types.Var)
			if v == nil {
				return nil, "", false
			}
			return v, sel.Sel.Name, true
		default:
			return nil, "", false
		}
	}
}
