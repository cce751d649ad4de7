package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.test/tmp\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoadDirUnparseableFile(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/good.go":   "package p\n\nfunc ok() {}\n",
		"p/broken.go": "package p\n\nfunc oops( {\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(filepath.Join(root, "p"))
	if err == nil {
		t.Fatal("LoadDir succeeded on a package with a syntax error")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error does not name the broken file: %v", err)
	}
}

func TestLoadDirSkipsBuildExcludedFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": "package p\n\nfunc ok() {}\n",
		// A generator script: different package name, would fail the
		// multiple-packages check if not excluded.
		"p/gen.go": "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		// Wrong OS: references an API that does not exist anywhere.
		"p/other_os.go": "//go:build plan9 && !plan9dummy\n\npackage p\n\nfunc osSpecific() { missingFunc() }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (constrained files excluded)", len(pkg.Files))
	}
}

func TestLoadDirKeepsSatisfiedConstraints(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": "package p\n\nfunc ok() {}\n",
		// Satisfied on any toolchain this repo supports.
		"p/new.go": "//go:build go1.21\n\npackage p\n\nfunc newAPI() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want 2 (go1.21 constraint is satisfied)", len(pkg.Files))
	}
}

func TestLoadPatternsSkipsVendor(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go":                        "package p\n\nfunc ok() {}\n",
		"vendor/example.com/dep/dep.go": "package dep\n\nfunc Dep() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.ImportPath, "vendor") {
			t.Errorf("vendored package loaded: %s", pkg.ImportPath)
		}
	}
	if len(pkgs) != 1 {
		t.Errorf("loaded %d packages, want 1", len(pkgs))
	}
}

func TestLoadPatternsSkipsIgnoreOnlyDirs(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go":       "package p\n\nfunc ok() {}\n",
		"tools/gen.go": "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if len(pkgs) != 1 {
		t.Errorf("loaded %d packages, want 1 (ignore-only dir skipped)", len(pkgs))
	}
}

func TestLoadDirEmptyDir(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": "package p\n",
	})
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(filepath.Join(root, "empty")); err == nil {
		t.Error("LoadDir succeeded on a directory with no Go files")
	}
}

func TestLoaderFixtureSrcImports(t *testing.T) {
	// A testdata GOPATH layout: package "b" imports bare path "a", the
	// multi-package fixture shape analysistest relies on.
	root := writeModule(t, map[string]string{
		"testdata/src/a/a.go": "package a\n\nfunc Shared() int { return 1 }\n",
		"testdata/src/b/b.go": "package b\n\nimport \"a\"\n\nfunc uses() int { return a.Shared() }\n",
	})
	l, err := NewLoader(filepath.Join(root, "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "testdata", "src", "b"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.ImportPath != "b" {
		t.Errorf("import path = %q, want %q", pkg.ImportPath, "b")
	}
	var imports []string
	for _, imp := range pkg.Types.Imports() {
		imports = append(imports, imp.Path())
	}
	if len(imports) != 1 || imports[0] != "a" {
		t.Errorf("imports = %v, want [a]", imports)
	}
}
