// Package bench holds the benchmark's golden result digests. The
// harness is cmd/gqbench and the workloads are in package workloads;
// see README.md.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// Goldens maps a workload name and a seed to the digest of one pass.
// The seed "*" stands for every seed without an entry of its own: it
// is recorded for workloads that draw no random numbers, whose
// simulation is the same at every seed.
type Goldens map[string]map[string]string

// LoadGoldens parses the embedded golden digests.
func LoadGoldens() (Goldens, error) {
	var g Goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: testdata/golden.json: %w", err)
	}
	return g, nil
}

// Digest returns the recorded digest of workload at seed, if any.
func (g Goldens) Digest(workload string, seed int64) (string, bool) {
	if d, ok := g[workload][strconv.FormatInt(seed, 10)]; ok {
		return d, true
	}
	d, ok := g[workload]["*"]
	return d, ok
}
