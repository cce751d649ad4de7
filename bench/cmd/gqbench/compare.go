package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced runs, A (the parent) and
// B (the change), workload by workload and end-to-end metric by
// metric:
//
//   - better: B wins at least nine tenths of the pairs and the medians
//     differ by more than A's interquartile range;
//   - unresolved: either side's spread (interquartile range over
//     median) exceeds the metric's bound, unless every run of B beats
//     every run of A;
//   - worse: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.
//
// Runs pair up by seed, or in file order where seeds do not match.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: gqbench compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %-12s %5s %26s %26s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median [q1 q3]", "B median [q1 q3]", "B wins", "B vs A", "bound", "verdict")
	for _, w := range names {
		pa, pb := pairUp(a[w], b[w])
		for _, m := range sp.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			lower := m.Better != "higher"
			wins, pairs := 0, 0
			for i := range pa {
				x, y := pa[i].Metrics[m.Name].Value, pb[i].Metrics[m.Name].Value
				pairs++
				if (lower && y < x) || (!lower && y > x) {
					wins++
				}
			}
			v := verdict(va, vb, wins, pairs, m.Bound, lower)
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(stdout, "%-16s %-12s %2d/%-2d %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %3d/%-3d %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, len(va), len(vb), ma, a1, a3, mb, b1, b3, wins, pairs, 100*(mb-ma)/ma, 100*m.Bound, v)
		}
	}
	return nil
}

// verdict classifies B against A for one metric; see compareMain.
func verdict(a, b []float64, wins, pairs int, bound float64, lower bool) string {
	ma, mb := median(a), median(b)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	gain := ma - mb // positive when B is better
	if !lower {
		gain = -gain
	}
	if pairs > 0 && 10*wins >= 9*pairs && gain > a3-a1 {
		return "better"
	}
	if (a3-a1)/ma > bound || (b3-b1)/mb > bound {
		if allBetter(a, b, lower) {
			return "better"
		}
		return "unresolved"
	}
	if -gain > bound*ma {
		return "worse"
	}
	return "unchanged"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// readRecords reads the untraced records of a -jsonl file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// pairUp matches runs of a and b with the same seed, then pairs the
// rest in order.
func pairUp(a, b []record) (pa, pb []record) {
	used := make([]bool, len(b))
	var restA []record
	for _, x := range a {
		found := false
		for j, y := range b {
			if !used[j] && y.Seed == x.Seed {
				used[j], found = true, true
				pa, pb = append(pa, x), append(pb, y)
				break
			}
		}
		if !found {
			restA = append(restA, x)
		}
	}
	j := 0
	for _, x := range restA {
		for j < len(b) && used[j] {
			j++
		}
		if j == len(b) {
			break
		}
		used[j] = true
		pa, pb = append(pa, x), append(pb, b[j])
	}
	return pa, pb
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
