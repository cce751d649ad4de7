// Command gqlint is the multichecker driver for the repository's
// custom analyzer suite (internal/analysis): determinism,
// poolownership, spanlifecycle, hotpathalloc, and unitsafety. It loads
// and type-checks packages with only the standard library (no module
// proxy required), applies every analyzer, honours //lint:ignore
// suppressions, and exits nonzero if any diagnostic remains.
//
// Usage:
//
//	gqlint [-tests] [-only name,name] [-json] [-keep-stale] [-help-analyzers] packages...
//
// where packages are directories or `./...` patterns, e.g.
//
//	go run ./cmd/gqlint ./...
//
// -json emits one JSON object per diagnostic (file, line, analyzer,
// message, suppressed) including suppressed findings, so CI can archive
// the full inventory. Stale //lint:ignore directives — ones that no
// longer suppress anything — are reported as findings unless
// -keep-stale is given.
//
// See docs/static-analysis.md for the invariant catalogue and the
// suppression policy.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mpichgq/internal/analysis"
	"mpichgq/internal/analysis/determinism"
	"mpichgq/internal/analysis/hotpathalloc"
	"mpichgq/internal/analysis/poolownership"
	"mpichgq/internal/analysis/spanlifecycle"
	"mpichgq/internal/analysis/unitsafety"
)

var all = []*analysis.Analyzer{
	determinism.Analyzer,
	hotpathalloc.Analyzer,
	poolownership.Analyzer,
	spanlifecycle.Analyzer,
	unitsafety.Analyzer,
}

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON Lines, including suppressed findings")
	keepStale := flag.Bool("keep-stale", false, "do not report stale //lint:ignore directives")
	describe := flag.Bool("help-analyzers", false, "print each analyzer's documentation and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gqlint [flags] packages...\n\npatterns are directories or ./... forms\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *describe {
		for _, a := range all {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "gqlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqlint: %v\n", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests

	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gqlint: %v\n", err)
		os.Exit(2)
	}

	ran := make([]string, len(analyzers))
	for i, a := range analyzers {
		ran[i] = a.Name
	}

	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAll(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gqlint: %v\n", err)
			os.Exit(2)
		}
		if !*keepStale {
			stale := analysis.StaleSuppressions(pkg, diags, ran, *only == "")
			if len(stale) > 0 {
				diags = append(diags, stale...)
				sort.Slice(diags, func(i, j int) bool {
					if diags[i].Pos != diags[j].Pos {
						return diags[i].Pos < diags[j].Pos
					}
					return diags[i].Analyzer < diags[j].Analyzer
				})
			}
		}
		if *jsonOut {
			if err := writeJSON(os.Stdout, pkg.Fset, diags); err != nil {
				fmt.Fprintf(os.Stderr, "gqlint: %v\n", err)
				os.Exit(2)
			}
		}
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			if !*jsonOut {
				pos := pkg.Fset.Position(d.Pos)
				fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
			}
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "gqlint: %d diagnostic(s)\n", found)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
