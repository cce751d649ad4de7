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
	"sync"
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
	err = filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != l.modRoot && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
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
		rel, _ := filepath.Rel(l.modRoot, pos.Filename)
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
	var tpkgs []*types.Package
	for _, u := range units {
		tpkgs = append(tpkgs, u.pkg)
	}
	ifaces = append(ifaces, namedInterfaces(tpkgs)...)

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

// namedInterfaces returns the named interfaces with methods that pkgs
// and everything they import declare, error included.
func namedInterfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{errorType}
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
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

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

// deadAllowlist names the non-test symbols that the reachability and
// unused-state checks accept although no production code reaches or
// reads them. Each carries its reason, under one of three rules:
// (a) it is test support; (b) an open ROADMAP item names it for its
// next step; (c) a remaining test needs it to check a named invariant
// whose value the metrics registry does not expose. An entry that
// production code now reaches, or whose symbol is gone, fails.
var deadAllowlist = map[string]string{
	// (a) Test support.
	"internal/analysis/analysistest.Run": "(a) the fixture driver of every analyzer test; reaches analysis.Run",
	"internal/quicktest.Config":          "(a) seeds every testing/quick property and logs the seed for replay",
	"internal/experiments.QuickConfig":   "(a) the reduced-scale figure configuration the experiment tests run",

	// (b) Named by an open ROADMAP item for its next step. MPI fault
	// tolerance under random crash and restart schedules (Invariants
	// (c)) returns typed errors through MPI_ERRORS_RETURN:
	"internal/mpi.Job.SetErrhandler":    "(b) Invariants (c): the MPI_ERRORS_RETURN handler",
	"internal/mpi.ErrorsReturn":         "(b) Invariants (c): the MPI_ERRORS_RETURN handler",
	"internal/mpi.Job.FailedRanks":      "(b) Invariants (c): which ranks a crash schedule took down",
	"internal/mpi.Rank.CommGroupFailed": "(b) Invariants (c): the failed members of a communicator",
	"internal/mpi.Rank.Epoch":           "(b) Invariants (c): a restarted rank's incarnation",
	"internal/mpi.Rank.Finalize":        "(b) Invariants (c): the teardown the lifecycle and soak tests end with",
	"internal/tcpsim.Stack.ConnCount":   "(b) Invariants (c): the teardown tests count each host's open connections",
	// MPI requests that end at Wait, and persistent requests that are
	// reused:
	"internal/mpi.Rank.SendInit":             "(b) MPI requests item: persistent send, to own one re-armed Request",
	"internal/mpi.Rank.RecvInit":             "(b) MPI requests item: persistent receive, to own one re-armed Request",
	"internal/mpi.PersistentRequest.SetData": "(b) MPI requests item: the payload of the next Start",
	"internal/mpi.PersistentRequest.Start":   "(b) MPI requests item: re-arms the persistent request",
	"internal/mpi.PersistentRequest.Wait":    "(b) MPI requests item: to return the Message by value",
	"internal/mpi.PersistentRequest.Message": "(b) MPI requests item: replaced by a Wait that returns the Message",
	"internal/mpi.Request.Message":           "(b) MPI requests item: replaced by a Wait that returns the Message",
	"internal/mpi.Message.Src":               "(b) MPI requests item: TestIrecvDifferential, its bar, digests each message's source",
	// The results-changing control-plane item configures the storm
	// workload's loss and duplication (iii):
	"internal/ctrlplane.Conn.Chans":  "(b) control-plane item (iii): the channels the storm's duplication goes on",
	"internal/ctrlplane.Chan.SetDup": "(b) control-plane item (iii): the storm's message duplication",

	// (c) A remaining test needs it to check a named invariant, and the
	// metrics registry does not expose the value.
	"internal/core.Agent.ReleaseAll":      "(c) zero leaked capacity under faults: the chaos soak releases every binding before it reads the links",
	"internal/sim.Kernel.LiveProcs":       "(c) exactly-once pool ownership: Close must hand every coroutine back; TestStormDifferential spawns none",
	"internal/gara.NetworkRM.Utilization": "(c) zero leaked capacity under faults: the chaos, crash and recovery tests read each link's EF commitment",
	"internal/ctrlplane.Conn.madeMsgs":    "(c) exactly-once pool ownership: the pool soak checks every record ever made is back on its freelist",
	"internal/ctrlplane.Conn.madeReplies": "(c) exactly-once pool ownership: the pool soak checks every record ever made is back on its freelist",
	"internal/faults.Scenario.Loss":       "(c) zero leaked capacity under faults: the chaos soak's random scenarios open loss windows",
	"internal/faults.Scenario.Corrupt":    "(c) zero leaked capacity under faults: the chaos soak's random scenarios open corruption windows",
}

// TestProductionReachesEveryFunc fails on every non-test func or
// method of the module that no non-test code reaches. The roots are
// main and init, package-level var initialisers, interface
// implementations, bench/'s code (a caller only: nothing under bench/
// is flagged) and the allowlist; reachability is transitive, so a
// helper that only a test-only func calls fails too.
func TestProductionReachesEveryFunc(t *testing.T) {
	l, findings := deadTree(t)
	for _, f := range findings {
		if f.kind == deadUnreachable || f.kind == deadStale {
			reportDead(t, l, f)
		}
	}
}

// TestNoUnusedState fails on struct fields that non-test code writes
// but never reads, and on consts and types it never references. A
// field counts as read when it carries a struct tag, is embedded, or
// belongs to a struct used as a map key or compared with == or !=.
func TestNoUnusedState(t *testing.T) {
	l, findings := deadTree(t)
	for _, f := range findings {
		if f.kind != deadUnreachable && f.kind != deadStale {
			reportDead(t, l, f)
		}
	}
}

// TestDeadGuardFixture pins each check firing, and each exemption
// holding, on testdata/deadcode.
func TestDeadGuardFixture(t *testing.T) {
	l, err := NewLoader(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "deadcode", "src", "dead"))
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"dead.allowed":    "kept for a test",
		"dead.reached":    "stale: main reaches it",
		"dead.removed":    "stale: gone",
		"dead.shown.note": "kept for a test",
	}
	var got []string
	for _, f := range findDead([]*Package{pkg}, func(*Package) bool { return true }, allow) {
		got = append(got, f.kind.String()+" "+f.sym)
	}
	want := []string{
		"unreachable dead.onlyTest",
		"unreachable dead.helper",
		"write-only field dead.square.label",
		"write-only field dead.config.count",
		"write-only field dead.config.log",
		"unreferenced const dead.unused",
		"unreferenced type dead.unusedType",
		"stale allowlist entry dead.reached",
		"stale allowlist entry dead.removed",
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

var deadOnce struct {
	sync.Once
	l        *Loader
	findings []deadFinding
	err      error
}

// deadTree runs findDead over every non-test package of the module,
// bench/ included as a caller, once per test binary.
func deadTree(t *testing.T) (*Loader, []deadFinding) {
	t.Helper()
	deadOnce.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			deadOnce.err = err
			return
		}
		pkgs, err := l.LoadPatterns([]string{l.modRoot + "/..."})
		if err != nil {
			deadOnce.err = err
			return
		}
		bench := l.modPath + "/bench"
		flag := func(p *Package) bool { return p.ImportPath != bench && !strings.HasPrefix(p.ImportPath, bench+"/") }
		deadOnce.l, deadOnce.findings = l, findDead(pkgs, flag, deadAllowlist)
	})
	if deadOnce.err != nil {
		t.Fatal(deadOnce.err)
	}
	return deadOnce.l, deadOnce.findings
}

func reportDead(t *testing.T, l *Loader, f deadFinding) {
	t.Helper()
	if !f.pos.IsValid() {
		t.Errorf("%s %s: %s", f.kind, f.sym, f.why)
		return
	}
	pos := l.Fset.Position(f.pos)
	rel, _ := filepath.Rel(l.modRoot, pos.Filename)
	t.Errorf("%s:%d: %s %s: %s", rel, pos.Line, f.kind, f.sym, f.why)
}

type deadKind int

const (
	deadUnreachable deadKind = iota
	deadWriteOnly
	deadConst
	deadType
	deadStale
)

func (k deadKind) String() string {
	return [...]string{"unreachable", "write-only field", "unreferenced const", "unreferenced type", "stale allowlist entry"}[k]
}

type deadFinding struct {
	kind deadKind
	pos  token.Pos
	sym  string
	why  string
}

// A deadSym is one candidate: a func, field, const or type declared in
// a flagged package.
type deadSym struct {
	kind deadKind
	pos  token.Pos
	sym  string
}

// findDead runs both checks over pkgs, which hold no test files.
// Symbols are named by import path (less the module path), then
// receiver or struct type, then name: "internal/mpi.Job.Epoch".
// Findings come in source order, stale allowlist entries last.
func findDead(pkgs []*Package, flag func(*Package) bool, allow map[string]string) []deadFinding {
	var (
		syms      []deadSym
		bySym     = make(map[string]bool)
		funcRefs  = make(map[token.Pos][]token.Pos) // func -> funcs it references
		roots     []token.Pos
		extra     []token.Pos // allowlisted funcs
		pkgLevel  []ast.Node  // package-level var, const and type specs
		bodies    = make(map[token.Pos]*ast.FuncDecl)
		exempt    = make(map[token.Pos]bool) // fields read by tag, embedding, map key or ==
		receivers = make(map[*ast.Ident]bool)
		infoOf    = make(map[ast.Node]*types.Info)
		ifaces    []*types.Interface
		implRoots = make(map[token.Pos]bool)
	)
	add := func(kind deadKind, pos token.Pos, sym string) {
		syms = append(syms, deadSym{kind, pos, sym})
		bySym[sym] = true
	}
	// pkgSym is the symbol prefix of a package: its import path less
	// the first element, the module path ("internal/mpi"); a fixture's
	// one-element path stays whole ("dead").
	pkgSym := func(p *types.Package) string {
		if _, rest, ok := strings.Cut(p.Path(), "/"); ok {
			return rest
		}
		return p.Path()
	}
	// Struct types used as map keys or compared with ==: all their
	// fields count as read.
	var markStruct func(t types.Type)
	markStruct = func(t types.Type) {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !exempt[f.Pos()] {
				exempt[f.Pos()] = true
				markStruct(f.Type())
			}
		}
	}

	for _, p := range pkgs {
		flagged := flag(p)
		prefix := pkgSym(p.Types)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				markStruct(m.Key())
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					bodies[fn.Pos()] = d
					infoOf[d] = p.Info
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					switch {
					case !flagged, d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init"):
						roots = append(roots, fn.Pos())
					default:
						sym := prefix + "." + d.Name.Name
						if d.Recv != nil {
							sym = prefix + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
						}
						add(deadUnreachable, fn.Pos(), sym)
						if _, ok := allow[sym]; ok {
							extra = append(extra, fn.Pos())
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						pkgLevel = append(pkgLevel, spec)
						infoOf[spec] = p.Info
						if !flagged {
							continue
						}
						switch s := spec.(type) {
						case *ast.ValueSpec:
							if d.Tok == token.CONST {
								for _, id := range s.Names {
									if id.Name != "_" {
										add(deadConst, id.Pos(), prefix+"."+id.Name)
									}
								}
							}
						case *ast.TypeSpec:
							add(deadType, s.Name.Pos(), prefix+"."+s.Name.Name)
							ast.Inspect(s.Type, func(n ast.Node) bool {
								st, ok := n.(*ast.StructType)
								if !ok {
									return true
								}
								for _, fld := range st.Fields.List {
									for _, id := range fld.Names {
										if id.Name == "_" {
											continue
										}
										add(deadWriteOnly, id.Pos(), prefix+"."+s.Name.Name+"."+id.Name)
										if fld.Tag != nil {
											exempt[id.Pos()] = true
										}
									}
								}
								return true
							})
						}
					}
				}
			}
		}
	}

	// Roots: interface implementations, and every func a package-level
	// var initialiser references.
	var tpkgs []*types.Package
	for _, p := range pkgs {
		tpkgs = append(tpkgs, p.Types)
	}
	ifaces = append(ifaces, namedInterfaces(tpkgs)...)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					markImplementations(named, ifaces, implRoots)
				}
			}
		}
	}
	for pos := range implRoots {
		if bodies[pos] != nil {
			roots = append(roots, pos)
		}
	}
	funcsIn := func(n ast.Node, info *types.Info) []token.Pos {
		var out []token.Pos
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin().Pos())
				}
			}
			return true
		})
		return out
	}
	for _, spec := range pkgLevel {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			roots = append(roots, funcsIn(vs, infoOf[spec])...)
		}
	}
	for pos, fd := range bodies {
		funcRefs[pos] = funcsIn(fd, infoOf[fd])
	}
	reach := func(from []token.Pos) map[token.Pos]bool {
		reached := make(map[token.Pos]bool)
		work := append([]token.Pos(nil), from...)
		for len(work) > 0 {
			pos := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[pos] {
				continue
			}
			reached[pos] = true
			work = append(work, funcRefs[pos]...)
		}
		return reached
	}
	byRoots := reach(roots)
	live := reach(append(roots, extra...))

	// Uses in the code reached, and in package-level specs. Field uses
	// split into writes (assignment and ++/-- targets, composite-literal
	// keys, and the x.f of x.f = append(x.f, ...)) and reads (every
	// other use).
	uses := func(reached map[token.Pos]bool) (used, read map[token.Pos]bool) {
		used, read = make(map[token.Pos]bool), make(map[token.Pos]bool)
		scan := func(n ast.Node, info *types.Info) {
			writes := make(map[*ast.Ident]bool)
			target := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					writes[sel.Sel] = true
				}
			}
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, e := range n.Lhs {
						target(e)
						if len(n.Rhs) == len(n.Lhs) && selfAppend(info, e, n.Rhs[i]) {
							target(n.Rhs[i].(*ast.CallExpr).Args[0])
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						if tv, ok := info.Types[n.X]; ok {
							markStruct(tv.Type)
						}
					}
				case *ast.Ident:
					obj := info.Uses[n]
					if obj == nil || receivers[n] {
						return true
					}
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						if !writes[n] {
							read[v.Origin().Pos()] = true
						}
						return true
					}
					used[obj.Pos()] = true
				}
				return true
			})
		}
		for pos := range reached {
			if fd := bodies[pos]; fd != nil {
				scan(fd, infoOf[fd])
			}
		}
		for _, spec := range pkgLevel {
			// A type's own declaration does not keep it alive.
			if ts, ok := spec.(*ast.TypeSpec); ok {
				was := used[ts.Name.Pos()]
				scan(spec, infoOf[spec])
				used[ts.Name.Pos()] = was
				continue
			}
			scan(spec, infoOf[spec])
		}
		return used, read
	}
	usedByRoots, readByRoots := uses(byRoots)
	used, read := uses(live)
	isDead := func(s deadSym, reached, used, read map[token.Pos]bool) bool {
		switch s.kind {
		case deadUnreachable:
			return !reached[s.pos]
		case deadWriteOnly:
			return !read[s.pos] && !exempt[s.pos]
		}
		return !used[s.pos]
	}

	var out, stale []deadFinding
	for _, s := range syms {
		if _, ok := allow[s.sym]; !ok {
			if isDead(s, live, used, read) {
				out = append(out, deadFinding{s.kind, s.pos, s.sym, deadWhy[s.kind]})
			}
		} else if !isDead(s, byRoots, usedByRoots, readByRoots) {
			stale = append(stale, deadFinding{deadStale, s.pos, s.sym, "production code reaches or reads it now; drop it from the allowlist"})
		}
	}
	for sym := range allow {
		if !bySym[sym] {
			stale = append(stale, deadFinding{deadStale, token.NoPos, sym, "no such symbol; drop it from the allowlist"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	sort.Slice(stale, func(i, j int) bool { return stale[i].sym < stale[j].sym })
	return append(out, stale...)
}

var deadWhy = map[deadKind]string{
	deadUnreachable: "no non-test code reaches it; delete it or allowlist it with a reason",
	deadWriteOnly:   "written but never read outside tests; delete it or allowlist it with a reason",
	deadConst:       "referenced nowhere outside tests; delete it or allowlist it with a reason",
	deadType:        "referenced nowhere outside tests; delete it or allowlist it with a reason",
}

// selfAppend reports whether rhs is append(lhs, ...) for a field
// selector lhs: growing a field reads it only to write it back.
func selfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[fn] != types.Universe.Lookup("append") {
		return false
	}
	l, ok1 := ast.Unparen(lhs).(*ast.SelectorExpr)
	r, ok2 := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	return ok1 && ok2 && info.Uses[l.Sel] == info.Uses[r.Sel] && types.ExprString(l.X) == types.ExprString(r.X)
}

// recvName is the type name of a method receiver: T in (t *T), (T),
// (t T[K]) and so on.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
