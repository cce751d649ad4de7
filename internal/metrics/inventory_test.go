package metrics

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registeredMetrics parses the non-test Go code under the given
// directories (analyzer fixtures in testdata/ excluded) and returns the
// name and type of every series registered with a literal name.
func registeredMetrics(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	kinds := map[string]Kind{
		"Counter": KindCounter, "Gauge": KindGauge, "GaugeFunc": KindGaugeFunc, "Histogram": KindHistogram,
	}
	out := make(map[string]string)
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() && d.Name() == "testdata" {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, ok := kinds[sel.Sel.Name]
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if ok && isLit && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out[name] = kind.String()
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// documentedMetrics reads the name and type columns of the tables in
// the "Metric inventory" section of the observability doc.
func documentedMetrics(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `([a-z0-9_]+)` \\| ([a-z]+) \\|")
	out := make(map[string]string)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric inventory"
		}
		if m := row.FindStringSubmatch(line); in && m != nil {
			out[m[1]] = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricInventoryDocumented fails when docs/observability.md's
// metric inventory and the series the code registers differ by name or
// type, so a new metric cannot land undocumented and a deleted one
// cannot stay documented.
func TestMetricInventoryDocumented(t *testing.T) {
	code := registeredMetrics(t, "../../internal", "../../cmd")
	doc := documentedMetrics(t, "../../docs/observability.md")
	var diffs []string
	for name, kind := range code {
		if doc[name] != kind {
			diffs = append(diffs, "registered "+kind+" "+name+" is documented as "+strconv.Quote(doc[name]))
		}
	}
	for name := range doc {
		if _, ok := code[name]; !ok {
			diffs = append(diffs, "documented "+name+" is registered nowhere")
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(code) == 0 {
		t.Fatal("found no registrations; is the walk rooted at the repository?")
	}
}

// documentedEvents reads the type column of the flight-recorder payload
// table in the observability doc: its rows are the ones under the
// "| Type | Subject |" header of the "Flight recorder" section.
func documentedEvents(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `([a-z.-]+)` \\|")
	out := make(map[string]bool)
	in, table := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Flight recorder"
		}
		if strings.HasPrefix(line, "| Type | Subject |") {
			table = in
		} else if !strings.HasPrefix(line, "|") {
			table = false
		}
		if m := row.FindStringSubmatch(line); table && m != nil {
			out[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEventInventoryDocumented fails when docs/observability.md's
// flight-recorder payload table and eventTypeNames differ: a type with
// no row, or a row that names no type. EvNone is never emitted, so it
// has no row.
func TestEventInventoryDocumented(t *testing.T) {
	doc := documentedEvents(t, "../../docs/observability.md")
	var diffs []string
	for typ, name := range eventTypeNames {
		if EventType(typ) != EvNone && !doc[name] {
			diffs = append(diffs, "event type "+name+" has no row")
		}
	}
	for name := range doc {
		if typ, ok := ParseEventType(name); !ok || typ == EvNone {
			diffs = append(diffs, "documented event "+name+" is no emitted type")
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(doc) == 0 {
		t.Fatal("found no payload table rows; is the doc path right?")
	}
}
