package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, parsed, and type-checked package, ready to
// be handed to analyzers.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// A Loader parses and type-checks packages of the enclosing module.
// It resolves module-internal import paths itself (by mapping them
// onto the module root) and delegates standard-library imports to the
// compiler's source importer, so it needs neither a module proxy nor
// pre-built export data. Loaded packages are memoized, so shared
// dependencies (internal/sim, internal/units, ...) type-check once.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	// srcDir is the testdata GOPATH-style source root (<dir>/src) when
	// the loader was created on a testdata directory. Packages under it
	// get bare synthetic import paths ("a", "b/helper") and can import
	// each other by those paths, mirroring upstream analysistest.
	srcDir string

	// IncludeTests makes LoadDir also parse _test.go files (only the
	// in-package ones; external _test packages are skipped).
	IncludeTests bool

	byPath map[string]*Package
	byDir  map[string]*Package
	std    types.ImporterFrom
	// loading guards against import cycles during recursive loads.
	loading map[string]bool
}

// NewLoader creates a loader rooted at the module containing dir (it
// walks upward until it finds go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: modPath,
		byPath:  make(map[string]*Package),
		byDir:   make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if src := filepath.Join(abs, "src"); dirExists(src) {
		l.srcDir = src
	}
	return l, nil
}

func dirExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Import implements types.Importer. Module-internal paths are loaded
// from source under the module root; everything else (the standard
// library) goes through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.modRoot, rel))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	// Bare fixture imports resolve against the testdata src root, so
	// multi-package fixtures can import each other ("a" importing
	// "a/helper" or "b").
	if l.srcDir != "" {
		if dir := filepath.Join(l.srcDir, filepath.FromSlash(path)); dirExists(dir) {
			pkg, err := l.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.std.ImportFrom(path, l.modRoot, 0)
}

// LoadDir parses and type-checks the package in dir. The import path
// is derived from the directory's position relative to the module
// root; directories outside the normal package tree (testdata
// fixtures) keep a synthetic path so analyzers can still see it.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byDir[abs]; ok {
		return pkg, nil
	}
	importPath := l.importPathFor(abs)
	if l.loading[abs] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if buildExcluded(filepath.Join(abs, name)) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}

	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	// Pick the package clause, preferring the non-external-test name:
	// files in package foo_test type-check against foo's exported API
	// and are out of scope for gqlint, so they are dropped rather than
	// failing the directory on a package-name mismatch.
	pkgName := ""
	for _, f := range parsed {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
			break
		}
	}
	if pkgName == "" {
		pkgName = parsed[0].Name.Name
	}
	var files []*ast.File
	for _, f := range parsed {
		switch {
		case f.Name.Name == pkgName:
			files = append(files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			// external test package: skip
		default:
			return nil, fmt.Errorf("analysis: multiple packages in %s: %s and %s", abs, pkgName, f.Name.Name)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no files in package %s", abs)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}

	pkg := &Package{
		ImportPath: importPath,
		Dir:        abs,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.byDir[abs] = pkg
	l.byPath[importPath] = pkg
	return pkg, nil
}

func (l *Loader) importPathFor(abs string) string {
	// Packages under a testdata src root keep their src-relative path
	// as a synthetic import path ("a", "b/helper"), never a real module
	// path — fixtures must not look like the packages they mirror.
	if l.srcDir != "" {
		if rel, err := filepath.Rel(l.srcDir, abs); err == nil && rel != "." && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		// Outside the module (e.g. a testdata GOPATH layout): use the
		// directory name as a synthetic import path.
		return filepath.Base(abs)
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// LoadPatterns expands the package patterns (either directory paths or
// the `./...` wildcard form) into loaded packages. Directories without
// Go files, testdata trees, and dot-directories are skipped.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	addDir := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := rest
			if root == "" || root == "." {
				root = l.modRoot
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(path)
				if base == "testdata" || base == "vendor" || (strings.HasPrefix(base, ".") && path != root) || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		addDir(pat)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// buildExcluded reports whether the file's //go:build constraint (in
// the header, before the package clause) excludes it from this build:
// `//go:build ignore` scripts, other-OS files, and so on. Tags are
// evaluated against the running toolchain's GOOS, GOARCH, and go1.N
// release tags; legacy // +build lines without a //go:build line are
// not interpreted. Unreadable files are left in so LoadDir reports the
// real error.
func buildExcluded(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			if constraint.IsGoBuild(line) {
				expr, err := constraint.Parse(line)
				if err != nil {
					return false
				}
				return !expr.Eval(buildTagSatisfied)
			}
			continue
		}
		// First non-comment, non-blank line: the constraint window (and
		// with it the package clause or a /* block, which no gofmt'd
		// constraint follows) is over.
		return false
	}
	return false
}

func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, runtime.Compiler:
		return true
	}
	rest, ok := strings.CutPrefix(tag, "go1.")
	if !ok {
		return false
	}
	minor, err := strconv.Atoi(rest)
	if err != nil {
		return false
	}
	cur, err := strconv.Atoi(strings.SplitN(strings.TrimPrefix(runtime.Version(), "go1."), ".", 2)[0])
	if err != nil {
		// Development toolchains ("devel ..."): release tags unknown.
		return false
	}
	return minor <= cur
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") && !strings.HasSuffix(name, "_test.go") &&
			!buildExcluded(filepath.Join(dir, name)) {
			return true
		}
	}
	return false
}
