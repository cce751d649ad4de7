package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"mpichgq/internal/analysis"
)

func TestWriteJSON(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("pkg/file.go", -1, 1000)
	// Line starts at offsets 0, 10, 20 -> lines 1, 2, 3.
	f.SetLines([]int{0, 10, 20})

	diags := []analysis.Diagnostic{
		{Pos: f.Pos(0), Analyzer: "determinism", Message: "package-level state x is written outside init"},
		{Pos: f.Pos(10), Analyzer: "poolownership", Message: `message with "quotes" and \backslashes\`, Suppressed: true},
		{Pos: f.Pos(20), Analyzer: "suppression", Message: "stale //lint:ignore determinism directive: it suppresses nothing; delete it"},
	}

	var buf bytes.Buffer
	if err := writeJSON(&buf, fset, diags); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(diags) {
		t.Fatalf("got %d output lines, want %d:\n%s", len(lines), len(diags), buf.String())
	}
	for i, line := range lines {
		var got jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if got.File != "pkg/file.go" {
			t.Errorf("line %d: file = %q", i+1, got.File)
		}
		if got.Line != i+1 {
			t.Errorf("line %d: line = %d, want %d", i+1, got.Line, i+1)
		}
		if got.Analyzer != diags[i].Analyzer {
			t.Errorf("line %d: analyzer = %q, want %q", i+1, got.Analyzer, diags[i].Analyzer)
		}
		if got.Message != diags[i].Message {
			t.Errorf("line %d: message = %q, want %q", i+1, got.Message, diags[i].Message)
		}
		if got.Suppressed != diags[i].Suppressed {
			t.Errorf("line %d: suppressed = %v, want %v", i+1, got.Suppressed, diags[i].Suppressed)
		}
	}

	// Field names are the stable wire contract CI scripts grep for.
	for _, key := range []string{`"file"`, `"line"`, `"analyzer"`, `"message"`, `"suppressed"`} {
		if !strings.Contains(lines[0], key) {
			t.Errorf("first line missing %s field:\n%s", key, lines[0])
		}
	}
}
