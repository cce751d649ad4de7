// Package poolownership defines an analyzer enforcing the packet- and
// segment-pool ownership discipline from docs/performance.md.
//
// PR 4 made steady-state packet traffic allocation-free by recycling
// Packet and segment structs through freelists. That only works under
// an exactly-once ownership rule: every Network.AllocPacket /
// Stack.allocSeg result must, on every control-flow path, reach
// exactly one of
//
//   - the matching free (Network.FreePacket / Stack.freeSeg), or
//   - a consuming handoff (passed to a send/deliver/enqueue call,
//     stored into a struct, slice, map, or channel, or returned).
//
// Leaking a pooled struct quietly re-introduces per-packet garbage;
// freeing one twice aliases two live packets onto one struct and
// corrupts a simulation far from the bug. The flow-sensitive tracking
// itself lives in the shared ownership engine
// (internal/analysis/ownership); this package supplies the alloc/free
// recognition rules.
package poolownership

import (
	"go/ast"
	"go/types"

	"mpichgq/internal/analysis"
	"mpichgq/internal/analysis/ownership"
	"mpichgq/internal/analysis/summary"
)

// Analyzer reports pool-ownership violations.
var Analyzer = &analysis.Analyzer{
	Name: "poolownership",
	Doc: `enforce exactly-once free/handoff of pooled packet and segment allocations

Tracks every local bound to Network.AllocPacket or Stack.allocSeg and
reports:

  - a leak when some path reaches a return (or the end of the
    variable's scope) with the allocation neither freed nor handed
    off;
  - a double free when FreePacket/freeSeg may be reached twice for
    the same allocation.

Passing the pointer to any call, storing it, or returning it counts
as a consuming handoff; the callee becomes the owner.`,
	Run: run,
}

// allocMethods maps pool-allocation method names to their matching
// free method, which is how alloc/free pairs are recognised across
// netsim (Packet pool) and tcpsim (segment pool).
var allocMethods = map[string]string{
	"AllocPacket": "FreePacket",
	"allocSeg":    "freeSeg",
}

var freeMethods = map[string]bool{
	"FreePacket": true,
	"freeSeg":    true,
}

func run(pass *analysis.Pass) error {
	// Interprocedural summaries let the ownership engine see through
	// same-package helpers: a freeAndLog(pkt) helper settles the
	// packet (so a second free is a reported double free), and a
	// helper that merely inspects it leaves ownership — and the leak
	// obligation — with the caller.
	sums := summary.Compute(pass, &summary.Recognizer{
		Match: func(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, bool) {
			v, _, ok := freeCall(pass, call)
			return v, ok
		},
	})
	return ownership.Run(pass, ownership.Rules{
		Alloc:        allocCall,
		Settle:       freeCall,
		SettleName:   func(what string) string { return allocMethods[what] },
		ReportDouble: true,
		DoubleNote:   "double free corrupts the freelist",
		Summaries:    sums,
	})
}

// allocCall reports whether expr is a pool-allocation method call.
func allocCall(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, isAlloc := allocMethods[sel.Sel.Name]; !isAlloc {
		return "", false
	}
	// Must resolve to a method (not a field or standalone func).
	if selection := pass.TypesInfo.Selections[sel]; selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	return sel.Sel.Name, true
}

// freeCall matches recv.FreePacket(p) / s.freeSeg(seg) and returns the
// freed variable.
func freeCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !freeMethods[sel.Sel.Name] || len(call.Args) != 1 {
		return nil, "", false
	}
	if selection := pass.TypesInfo.Selections[sel]; selection == nil || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	v, _ := pass.ObjectOf(id).(*types.Var)
	if v == nil {
		return nil, "", false
	}
	return v, sel.Sel.Name, true
}
