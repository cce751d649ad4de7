// Package determinism defines an analyzer that keeps kernel-driven
// packages bit-deterministic.
//
// Every figure in the paper reproduction is regenerated from a root
// seed, and the regression suite asserts byte-identical output across
// -parallel settings. That only holds while simulation code draws no
// wall-clock time, no ambient randomness, spawns no raw goroutines,
// and never lets Go's randomized map iteration order decide the order
// in which events are scheduled, RPCs are emitted or processes block.
// It also only holds while the kernels of a -parallel sweep share
// nothing: a package-level variable written after init is visible to
// every kernel in the process, so its value would depend on how the
// workers interleave.
// This analyzer turns those conventions into compile-time errors for
// every package that sits on the simulation kernel.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"mpichgq/internal/analysis"
)

// Analyzer reports nondeterminism hazards in kernel-driven packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbid wall-clock, ambient randomness, goroutines, shared package state, and map-ordered event emission in kernel-driven packages

A package is kernel-driven when it imports the simulation kernel
(mpichgq/internal/sim) or one of the simulators built on it (netsim,
tcpsim). In such packages the analyzer reports:

  - references to wall-clock functions (time.Now, time.Since,
    time.Sleep, time.After, ...): simulated time comes from
    Kernel.Now;
  - math/rand package-level functions (the ambient, globally seeded
    source) and rand.New with a source that is not visibly
    rand.NewSource(seed): randomness must flow from the root seed via
    sim.RNG / experiments.DeriveSeed;
  - go statements: concurrency belongs to Kernel.Spawn, which admits
    one runnable process at a time, and no kernel-owned value may
    reach a goroutine the kernel does not schedule;
  - writes to package-level variables outside init functions: every
    kernel of a -parallel sweep shares package state, so simulation
    state must hang off the kernel that owns it;
  - range over a map whose body schedules events, wakes or queues
    processes and Waiters, emits RPCs / flight-recorder events, or
    calls a function that takes a
    *sim.Ctx (such a call may block, so the order of the calls is
    observable): iteration order would leak into the event sequence.
    Collect and sort keys first.`,
	Run: run,
}

// kernelPkgs are import paths whose presence marks a package as
// kernel-driven.
var kernelPkgs = []string{
	"mpichgq/internal/sim",
	"mpichgq/internal/netsim",
	"mpichgq/internal/tcpsim",
}

// wallClockFns are time-package functions that read or wait on the
// host's clock. time.Unix, time.Date etc. are pure and stay legal.
var wallClockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// emissionMethods are methods whose call order is observable in the
// simulation trace: kernel scheduling, process spawning, wakeups
// (Cond.Signal/Broadcast schedule the woken processes' and Waiters'
// steps in call order; Waiter.Wake/WakeAfter, Cond.Await/AwaitTimeout
// and the Serve receivers queue callbacks), flight recorder emission,
// control-plane RPC transmission, and the fluid flow lifecycle
// (Start/Stop emit flight-recorder events and trigger the rate solver,
// whose per-flow EvFluidRate emissions follow call order).
var emissionMethods = map[string]bool{
	"Schedule": true, "At": true, "AtFunc": true, "After": true,
	"AfterFunc": true, "AfterPrio": true, "AfterPrioFunc": true,
	"Spawn": true, "Emit": true, "call": true, "transmit": true,
	"Start": true, "Stop": true, "refreshFluid": true,
	"Signal": true, "Broadcast": true, "Wake": true, "WakeAfter": true,
	"Await": true, "AwaitTimeout": true, "Serve": true,
}

func run(pass *analysis.Pass) error {
	if !kernelDriven(pass) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsGeneratedFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			inInit := isInit(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkSelector(pass, n)
				case *ast.CallExpr:
					checkRandNew(pass, n)
				case *ast.GoStmt:
					pass.Reportf(n.Pos(), "go statement in kernel-driven package: goroutine interleaving is nondeterministic; use Kernel.Spawn (one runnable process at a time)")
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				case *ast.AssignStmt:
					if !inInit {
						for _, l := range n.Lhs {
							checkGlobalWrite(pass, l)
						}
					}
				case *ast.IncDecStmt:
					if !inInit {
						checkGlobalWrite(pass, n.X)
					}
				}
				return true
			})
		}
	}
	return nil
}

// isInit reports whether decl is a package init function, which runs
// before any kernel exists.
func isInit(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	return ok && fn.Recv == nil && fn.Name.Name == "init"
}

// checkGlobalWrite reports a store through x when it mutates a
// package-level variable, this package's or a qualified pkg.Var: the
// variable itself, or anything reached through it by field, index,
// slice or dereference.
func checkGlobalWrite(pass *analysis.Pass, x ast.Expr) {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			if reportPackageVar(pass, e.Sel) {
				return
			}
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.Ident:
			reportPackageVar(pass, e)
			return
		default:
			return
		}
	}
}

func reportPackageVar(pass *analysis.Pass, id *ast.Ident) bool {
	v, ok := pass.ObjectOf(id).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	pass.Reportf(id.Pos(), "package-level state %s is written outside init: every kernel of a -parallel sweep shares it; hang the state off the kernel that owns it", v.Name())
	return true
}

func kernelDriven(pass *analysis.Pass) bool {
	for _, p := range kernelPkgs {
		if pass.ImportPath == p || pass.DirectlyImports(p) {
			return true
		}
	}
	return false
}

// pkgFunc returns the package path and name if obj is a package-level
// function.
func pkgFunc(obj types.Object) (string, string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return
	}
	path, name, ok := pkgFunc(obj)
	if !ok {
		return
	}
	switch path {
	case "time":
		if wallClockFns[name] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock: simulation time must come from Kernel.Now so runs are bit-reproducible", name)
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewPCG", "NewChaCha8":
			// Checked at the enclosing call site so the seed
			// expression is visible.
		default:
			pass.Reportf(sel.Pos(), "rand.%s uses the ambient math/rand source: derive randomness from the root seed via sim.RNG or experiments.DeriveSeed", name)
		}
	}
}

// checkRandNew validates rand.New(...) call sites: the source argument
// must be a literal rand.NewSource(...) / rand.NewPCG(...) call, so the
// seed's provenance is visible at the call site.
func checkRandNew(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return
	}
	path, name, ok := pkgFunc(obj)
	if !ok || (path != "math/rand" && path != "math/rand/v2") || name != "New" {
		return
	}
	if len(call.Args) >= 1 {
		if inner, ok := call.Args[0].(*ast.CallExpr); ok {
			if isel, ok := inner.Fun.(*ast.SelectorExpr); ok {
				if iobj := pass.TypesInfo.Uses[isel.Sel]; iobj != nil {
					if ipath, iname, ok := pkgFunc(iobj); ok &&
						(ipath == "math/rand" || ipath == "math/rand/v2") &&
						(iname == "NewSource" || iname == "NewPCG" || iname == "NewChaCha8") {
						return // visibly seeded
					}
				}
			}
		}
	}
	pass.Reportf(call.Pos(), "rand.New without a visible rand.NewSource(seed): seed provenance must be auditable (derive from the root seed)")
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := emissionCall(pass, call); ok {
			pass.Reportf(call.Pos(), "%s called while ranging over a map: Go's random iteration order leaks into the event sequence and breaks bit-determinism; collect and sort the keys first", name)
		} else if takesCtx(pass, call) {
			pass.Reportf(call.Pos(), "%s takes a *sim.Ctx, so it may block, while ranging over a map: Go's random iteration order becomes the order of blocking calls; collect and sort the keys first", types.ExprString(call.Fun))
		}
		return true
	})
}

// emissionCall reports whether call invokes one of the module's
// emissionMethods, and its name.
func emissionCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", false
	}
	fn := selection.Obj().(*types.Func)
	if !emissionMethods[fn.Name()] || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "mpichgq/") {
		return "", false
	}
	return fn.Name(), true
}

// takesCtx reports whether call passes a *sim.Ctx: only a process can
// block, and a callee blocks through the process's Ctx.
func takesCtx(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if types.TypeString(sig.Params().At(i).Type(), nil) == "*mpichgq/internal/sim.Ctx" {
			return true
		}
	}
	return false
}
