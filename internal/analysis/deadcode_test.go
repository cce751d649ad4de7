package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A checkedFiles is one type-checked set of files: a package with its
// in-package tests, or an external _test package.
type checkedFiles struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// TestNoUnreferencedFuncs guards against dead code. Every func and
// method in the module, bench/ and all tests included, must be
// referenced from somewhere other than its own body, be a root (main,
// init, Test*, Benchmark*, Example*, Fuzz*), or implement a method of
// an interface the module or an imported package declares (String,
// Error, HandlePacket, heap methods, ...), since calls through an
// interface name the interface's method, not the implementation.
func TestNoUnreferencedFuncs(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var units []checkedFiles
	err = filepath.WalkDir(l.ModuleRoot(), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != l.ModuleRoot() && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		checked, err := checkWithTests(l, path)
		units = append(units, checked...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := unreferencedFuncs(units)
	for _, fn := range dead {
		pos := l.Fset.Position(fn.Pos())
		rel, _ := filepath.Rel(l.ModuleRoot(), pos.Filename)
		t.Errorf("%s:%d: %s is referenced nowhere in the module; delete it", rel, pos.Line, fn.FullName())
	}
}

// checkWithTests type-checks the package in dir together with its
// in-package tests, and its external _test package, as go test builds
// them: every other package is imported without its tests, which the
// loader (IncludeTests off) provides. The package's own files are the
// loader's ASTs, so objects from both checks share positions.
func checkWithTests(l *Loader, dir string) ([]checkedFiles, error) {
	var files, ext []*ast.File
	if hasGoFiles(dir) {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		files = append(files, pkg.Files...)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if buildExcluded(name) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			files = append(files, f)
		}
	}
	path := l.importPathFor(dir)
	var out []checkedFiles
	check := func(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
		info := &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, l.Fset, files, info)
		if err == nil {
			out = append(out, checkedFiles{files, info, pkg})
		}
		return pkg, err
	}
	var withTests *types.Package
	if len(files) > 0 {
		if withTests, err = check(path, files, l); err != nil {
			return nil, err
		}
	}
	if len(ext) > 0 {
		// External tests import the package without its tests, like
		// every other package they import; only names an export_test.go
		// file declares need the package with its tests.
		if _, err := check(path+"_test", ext, l); err != nil {
			_, err = check(path+"_test", ext, importerFunc(func(p string) (*types.Package, error) {
				if p == path {
					return withTests, nil
				}
				return l.Import(p)
			}))
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreferencedFuncs returns the module's funcs and methods that no
// identifier outside their own declaration uses, less the roots and the
// interface implementations, in source order.
func unreferencedFuncs(units []checkedFiles) []*types.Func {
	// Objects are keyed by position: a package checked with its tests
	// and the same package imported without them are two *types.Package
	// values over one set of ASTs.
	used := make(map[token.Pos]bool)
	var ifaces []*types.Interface
	for _, u := range units {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				self := token.NoPos
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = fd.Name.Pos()
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := u.info.Uses[id].(*types.Func); ok && fn.Origin().Pos() != self {
							used[fn.Origin().Pos()] = true
						}
					}
					return true
				})
			}
		}
		// Interface literals and every interface type the code names.
		for _, tv := range u.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	// Named interfaces of the module and everything it imports.
	ifaces = append(ifaces, errorType)
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, u := range units {
		visit(u.pkg)
	}

	var cands []*types.Func
	for _, u := range units {
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if !isRoot(name) {
					cands = append(cands, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					cands = append(cands, named.Method(i))
				}
				markImplementations(named, ifaces, used)
			}
		}
	}
	var dead []*types.Func
	for _, fn := range cands {
		if !used[fn.Pos()] {
			dead = append(dead, fn)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	return dead
}

// markImplementations marks as used each method through which named
// (or a pointer to it) satisfies one of ifaces, promoted methods of
// embedded fields included.
func markImplementations(named *types.Named, ifaces []*types.Interface, used map[token.Pos]bool) {
	if _, ok := named.Underlying().(*types.Interface); ok {
		return
	}
	var recv types.Type = types.NewPointer(named)
	if named.TypeParams().Len() > 0 {
		// Check the generic type instantiated with its own parameters.
		args := make([]types.Type, named.TypeParams().Len())
		for i := range args {
			args[i] = named.TypeParams().At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return
		}
		recv = types.NewPointer(inst)
	}
	mset := types.NewMethodSet(recv)
	if mset.Len() == 0 {
		return
	}
	// The errors package calls these through interface literals of its
	// own, which the scan does not see.
	if types.Implements(recv, errorType) {
		for _, name := range []string{"Is", "As", "Unwrap"} {
			if sel := mset.Lookup(nil, name); sel != nil {
				used[sel.Obj().Pos()] = true
			}
		}
	}
	for _, it := range ifaces {
		if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(recv, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				used[sel.Obj().Pos()] = true
			}
		}
	}
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isRoot(name string) bool {
	if name == "main" || name == "init" {
		return true
	}
	for _, prefix := range []string{"Test", "Benchmark", "Example", "Fuzz"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
