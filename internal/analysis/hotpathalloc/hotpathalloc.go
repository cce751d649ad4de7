// Package hotpathalloc defines an analyzer that keeps the pooled
// event-scheduling path allocation-free.
//
// PR 4 added closure-free scheduling variants — Kernel.AtFunc,
// Kernel.AfterFunc, Kernel.AfterPrioFunc — whose whole point is that
// the callback is a prebound package-level function of the form
// func(a0, a1 any) and the two arguments ride inside the pooled event
// struct. Passing a function literal (or a method value, which the
// compiler also materialises as a closure) to one of these APIs
// silently re-introduces one heap allocation per scheduled event and
// defeats the pool; the zero-allocation tests only catch the
// regression if the affected path happens to be one they drive. This
// analyzer catches it at every call site.
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"mpichgq/internal/analysis"
)

// Analyzer reports closure allocations on pooled scheduling paths.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: `forbid function literals and method values as the callback of AtFunc/AfterFunc/AfterPrioFunc

These kernel APIs exist so hot paths can schedule events with zero
allocations: the callback must be a prebound package-level function
(or struct-field function value) of type func(a0, a1 any), with the
receiver and payload passed as the two scheduling arguments. A
function literal allocates a closure per event whenever it captures
variables, and a method value (x.Method used as a value) always
allocates. Hoist the callback to package level and pass state via
a0/a1, e.g.:

    func onTimer(a0, a1 any) { a0.(*Conn).fire(a1.(int)) }
    k.AfterFunc(d, onTimer, c, seq)`,
	Run: run,
}

// pooledFuncs are the closure-free scheduling entry points; the
// callback is always their first func-typed parameter.
var pooledFuncs = map[string]bool{
	"AtFunc":        true,
	"AfterFunc":     true,
	"AfterPrioFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsGeneratedFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pooledCall(pass, call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				t := pass.TypeOf(arg)
				if t == nil {
					continue
				}
				if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
					continue
				}
				checkCallback(pass, name, arg)
			}
			return true
		})
	}
	return nil
}

// pooledCall reports whether call invokes one of the pooled
// scheduling methods (on any receiver declared in this module, so
// wrappers with the same contract are covered too).
func pooledCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !pooledFuncs[sel.Sel.Name] {
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	return sel.Sel.Name, true
}

func checkCallback(pass *analysis.Pass, api string, arg ast.Expr) {
	switch arg := arg.(type) {
	case *ast.FuncLit:
		if captures(pass, arg) {
			pass.Reportf(arg.Pos(), "function literal passed to %s captures variables and allocates a closure per event: hoist it to a package-level func(a0, a1 any) and pass the state via the scheduling arguments", api)
		} else {
			pass.Reportf(arg.Pos(), "function literal passed to %s: even capture-free literals belong at package level so the pooled path stays auditable (and a later captured variable doesn't silently start allocating)", api)
		}
	case *ast.SelectorExpr:
		// x.Method used as a value allocates a bound-method closure.
		if selection := pass.TypesInfo.Selections[arg]; selection != nil && selection.Kind() == types.MethodVal {
			pass.Reportf(arg.Pos(), "method value %s passed to %s allocates a bound-method closure per event: use a package-level func(a0, a1 any) and pass the receiver as a scheduling argument", arg.Sel.Name, api)
		}
	case *ast.ParenExpr:
		checkCallback(pass, api, arg.X)
	}
}

// captures reports whether the function literal references any
// identifier declared outside its own body (a closure capture).
func captures(pass *analysis.Pass, lit *ast.FuncLit) bool {
	declaredInside := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				declaredInside[obj] = true
			}
		}
		return true
	})
	capt := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || capt {
			return !capt
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || declaredInside[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		capt = true
		return false
	})
	return capt
}
