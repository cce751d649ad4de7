package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"mpichgq/bench"
	"mpichgq/bench/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this build")

// TestGolden runs one pass of every workload at seeds 1 and 2 and
// compares the result digests with testdata/golden.json; -update
// rewrites the file instead, recording a digest for every seed ("*")
// where the two seeds agree. A traced pass must produce the digest of
// an untraced one.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pass of every workload twice")
	}
	goldens, err := bench.LoadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	got := bench.Goldens{}
	for _, name := range workloads.Names() {
		got[name] = map[string]string{}
		for _, seed := range []int64{1, 2} {
			w, err := workloads.New(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runPass(w, false, "")
			if err != nil || rep.Failed > 0 {
				t.Fatalf("%s seed %d: %v %v", name, seed, err, rep.Errors)
			}
			got[name][strconv.FormatInt(seed, 10)] = rep.Digest
			if want, ok := goldens.Digest(name, seed); !*update && (!ok || rep.Digest != want) {
				t.Errorf("%s seed %d: digest %s, golden %s", name, seed, rep.Digest, want)
			}
		}
		if got[name]["1"] == got[name]["2"] {
			got[name]["*"] = got[name]["1"]
		}
	}
	w, err := workloads.New("gara-book", 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPass(w, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if traced.Digest != got["gara-book"]["1"] {
		t.Errorf("traced gara-book digest %s, untraced %s", traced.Digest, got["gara-book"]["1"])
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "..", "testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// harness in step: the end-to-end and per-layer metrics it declares
// are exactly the ones gqbench prints, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	p := &parent{reps: []passReport{{}, {Traced: true}}}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		var d, pr []string
		for _, m := range declared {
			d = append(d, m.Name+" "+m.Unit)
		}
		for n, m := range printed {
			pr = append(pr, n+" "+m.Unit)
		}
		sort.Strings(d)
		sort.Strings(pr)
		if len(d) != len(pr) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, gqbench prints %d", kind, len(d), len(pr))
		}
		for i := 0; i < len(d) && i < len(pr); i++ {
			if d[i] != pr[i] {
				t.Errorf("%s: BENCHMARK.json has %q where gqbench prints %q", kind, d[i], pr[i])
				break
			}
		}
	}
	check("end_to_end", spec.EndToEnd, p.endToEnd())
	check("per_layer", spec.PerLayer, p.perLayer())
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		wins int
		want string
	}{
		{"same", a, 0, "unchanged"},
		{"20% faster", shift(a, 0.8), 10, "better"},
		{"20% slower", shift(a, 1.2), 0, "worse"},
		{"5% slower within a 10% bound", shift(a, 1.05), 0, "unchanged"},
		{"too noisy", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, 5, "unresolved"},
	} {
		if got := verdict(a, tc.b, tc.wins, len(a), 0.10, true); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
