package summary

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"

	"mpichgq/internal/analysis"
)

// fixtureSet computes summaries over the testdata package with a
// FreePacket recognizer mirroring poolownership's.
func fixtureSet(t *testing.T) *Set {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "a")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		ImportPath: pkg.ImportPath,
	}
	rec := &Recognizer{
		Match: func(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, bool) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "FreePacket" || len(call.Args) != 1 {
				return nil, false
			}
			id, ok := call.Args[0].(*ast.Ident)
			if !ok {
				return nil, false
			}
			v, _ := pass.ObjectOf(id).(*types.Var)
			return v, v != nil
		},
	}
	return Compute(pass, rec)
}

func summaryByName(t *testing.T, s *Set, name string) *FuncSummary {
	t.Helper()
	for fn, fs := range s.ByFunc {
		if fn.Name() == name {
			return fs
		}
	}
	t.Fatalf("no summary for %q", name)
	return nil
}

func TestSettleFacts(t *testing.T) {
	s := fixtureSet(t)
	cases := []struct {
		fn    string
		param int
		want  Facts
	}{
		{"freesDirect", 1, Settles},
		{"freesViaHelper", 1, Settles}, // through one helper
		{"freesMutualA", 1, Settles},   // SCC fixpoint
		{"freesMutualB", 1, Settles},   // SCC fixpoint
		{"readsOnly", 0, 0},            // pure read
		{"readsViaHelper", 0, 0},       // pure read through a helper
		{"returnsParam", 0, Escapes},
		{"aliasesParam", 0, Escapes},
		{"passesToUnknown", 0, Escapes},
		{"capturedByClosure", 0, Escapes},
		{"storesGlobalDirect", 0, Escapes},
		{"storesGlobalMap", 1, Escapes},
		{"storesGlobalAppend", 0, Escapes},
		{"storesGlobalViaHelper", 0, Escapes},
		{"spawnsWithArg", 0, Escapes},
		{"spawnsWithCapture", 0, Escapes},
		{"spawnsViaHelper", 0, Escapes},
	}
	for _, c := range cases {
		fs := summaryByName(t, s, c.fn)
		if got := fs.Params[c.param]; got != c.want {
			t.Errorf("%s param %d: facts = %b, want %b", c.fn, c.param, got, c.want)
		}
	}
}

func TestReceiverFacts(t *testing.T) {
	s := fixtureSet(t)
	// storesInReceiver: p goes into n.held — param escapes, receiver
	// is merely written through (a write through the receiver is not
	// an escape of the receiver).
	fs := summaryByName(t, s, "storesInReceiver")
	if got := fs.Params[0]; got != Escapes {
		t.Errorf("storesInReceiver param 0: facts = %b, want Escapes", got)
	}
	if fs.Recv != 0 {
		t.Errorf("storesInReceiver recv: facts = %b, want none", fs.Recv)
	}
	// FreePacket itself: its parameter escapes into the freelist.
	fp := summaryByName(t, s, "FreePacket")
	if got := fp.Params[0]; got&Escapes == 0 {
		t.Errorf("FreePacket param 0: facts = %b, want Escapes set", got)
	}
}

func TestArgFactsMapping(t *testing.T) {
	s := fixtureSet(t)
	fd := summaryByName(t, s, "freesDirect")
	if _, ok := fd.ArgFacts(1, 2, false); !ok {
		t.Error("freesDirect arg 1 of 2 should map")
	}
	if _, ok := fd.ArgFacts(1, 1, false); ok {
		t.Error("arity mismatch must not map")
	}
	if _, ok := fd.ArgFacts(1, 2, true); ok {
		t.Error("ellipsis call must not map")
	}
	vs := summaryByName(t, s, "variadicSink")
	if !vs.Variadic {
		t.Error("variadicSink: Variadic not set")
	}
	if _, ok := vs.ArgFacts(0, 3, false); ok {
		t.Error("variadic positions must not map")
	}
}
