package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

func load(t *testing.T, dir string) (*Loader, *Package) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(l.modRoot, dir))
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	l, pkg := load(t, "internal/netsim")
	if pkg.ImportPath != "mpichgq/internal/netsim" {
		t.Errorf("import path = %q", pkg.ImportPath)
	}
	if pkg.Types.Name() != "netsim" {
		t.Errorf("package name = %q", pkg.Types.Name())
	}
	// Both a module-internal and a stdlib import must have resolved.
	var gotSim, gotTime bool
	for _, imp := range pkg.Types.Imports() {
		switch imp.Path() {
		case "mpichgq/internal/sim":
			gotSim = true
		case "time":
			gotTime = true
		}
	}
	if !gotSim || !gotTime {
		t.Errorf("imports missing: sim=%v time=%v", gotSim, gotTime)
	}
	// Loading again must hit the memo, not re-typecheck.
	again, err := l.LoadDir(filepath.Join(l.modRoot, "internal/netsim"))
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Error("second LoadDir returned a different *Package")
	}
}

func TestLoaderSkipsExternalTestPackages(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.IncludeTests = true
	// internal/gara has both in-package and package gara_test files;
	// the loader must keep the former and drop the latter.
	pkg, err := l.LoadDir(filepath.Join(l.modRoot, "internal", "gara"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "gara" {
		t.Errorf("package name = %q", pkg.Types.Name())
	}
}

func TestLoadPatternsSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{filepath.Join(l.modRoot, "internal", "analysis") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.ImportPath, "testdata") {
			t.Errorf("testdata package loaded: %s", p.ImportPath)
		}
	}
	if len(pkgs) < 5 {
		t.Errorf("expected the analysis tree (framework + analyzers), got %d packages", len(pkgs))
	}
}

func TestParseSuppression(t *testing.T) {
	cases := []struct {
		text    string
		ok      bool
		matches []string
	}{
		{"//lint:ignore determinism goroutine is the kernel itself", true, []string{"determinism"}},
		{"//lint:ignore determinism,unitsafety shared justification", true, []string{"determinism", "unitsafety"}},
		{"//lint:ignore * blanket with reason", true, []string{"determinism", "poolownership", "anything"}},
		{"//lint:ignore determinism", false, nil}, // no justification: inert
		{"// regular comment", false, nil},
		{"//lint:ignore", false, nil},
	}
	for _, c := range cases {
		s, ok := parseSuppression(c.text)
		if ok != c.ok {
			t.Errorf("%q: ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		for _, name := range c.matches {
			if !s.matches(name) {
				t.Errorf("%q should suppress %q", c.text, name)
			}
		}
	}
	if s, ok := parseSuppression("//lint:ignore determinism reason"); !ok || s.matches("unitsafety") {
		t.Error("single-analyzer directive must not suppress other analyzers")
	}
}

func TestIsGeneratedFile(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(l.modRoot, "internal", "units"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkg.Files {
		if IsGeneratedFile(f) {
			t.Errorf("%s misdetected as generated", l.Fset.Position(f.Package).Filename)
		}
	}
	if IsGeneratedFile(&ast.File{}) {
		t.Error("empty file detected as generated")
	}
}
