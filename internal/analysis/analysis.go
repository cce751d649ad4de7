// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that gqlint needs.
//
// The container this repository builds in has no module proxy access,
// so the real x/tools analysis framework is unavailable; this package
// provides the same shape — an Analyzer with a Run function over a
// type-checked Pass, Diagnostics with positions, and a multichecker
// driver (cmd/gqlint) — using only the standard library's go/ast,
// go/parser, and go/types. Analyzers written against this package are
// deliberately API-compatible in spirit with x/tools analyzers so they
// can be ported if the dependency ever becomes available.
//
// The suite enforces the simulator's invariants (see
// docs/static-analysis.md for the catalogue):
//
//   - determinism:   no wall-clock, ambient randomness, goroutines,
//     package-level state written after init, or map-iteration-ordered
//     event emission in kernel-driven packages.
//   - poolownership: every Network.AllocPacket / Stack.allocSeg result
//     is freed or handed off exactly once on every path.
//   - hotpathalloc:  no per-event closure allocation on the pooled
//     AtFunc/AfterFunc/AfterPrioFunc scheduling path.
//   - unitsafety:    no dimension-mixing arithmetic or bare numeric
//     literals where internal/units (or time.Duration) types are
//     expected.
//   - spanlifecycle: every Tracer.Begin result reaches End/EndStatus
//     or a handoff on every path.
//
// The ownership analyses are interprocedural within a package: the
// callgraph and summary subpackages compute per-function may-facts
// (settles, escapes, stored-global, go-captured) to a fixpoint over
// strongly connected components, and analyzers refine their call-site
// treatment with them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. It mirrors the x/tools
// analysis.Analyzer struct: Name appears in diagnostics and in
// //lint:ignore directives, Doc is shown by `gqlint -help`, and Run is
// invoked once per type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and a
// sink for diagnostics. Exactly like the x/tools Pass, all syntax and
// type information refer to the shared FileSet.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportPath is the path the package was loaded under. For
	// testdata fixture packages this is the bare directory name.
	ImportPath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// A Diagnostic is one finding, positioned in the shared FileSet.
// Suppressed marks findings silenced by a //lint:ignore directive;
// Run drops them, RunAll keeps them marked so drivers can audit the
// suppression inventory (gqlint -json emits them).
type Diagnostic struct {
	Pos        token.Pos
	Analyzer   string
	Message    string
	Suppressed bool
}

// Run applies each analyzer to pkg and returns the diagnostics that
// survive //lint:ignore suppression, sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, err := RunAll(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	kept := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunAll applies each analyzer to pkg and returns every diagnostic,
// sorted by position, with suppressed findings marked rather than
// dropped.
func RunAll(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			ImportPath: pkg.ImportPath,
			diags:      &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	MarkSuppressed(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// DirectlyImports reports whether the package under analysis imports
// path (directly, not transitively).
func (p *Pass) DirectlyImports(path string) bool {
	for _, imp := range p.Pkg.Imports() {
		if imp.Path() == path {
			return true
		}
	}
	return false
}
