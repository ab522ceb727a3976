package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// testdata/golden.json maps every cell the benchmark runs, at its
// workload's scale and at the self-tests' 4-core scale, to the digest of
// the Stats and Energy a direct experiments.RunBenchmark of it returns.
// Regenerate only with -update-golden, and list the cells that changed.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// smokeCores is the reduced scale the self-tests run every workload at.
const smokeCores = 4

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing golden digests: %w", err)
	}
	return g, nil
}

// cell is one benchmark x setup x sync style simulation.
type cell struct {
	profile workload.Profile
	setup   experiments.Setup
	style   workload.SyncStyle
	cores   int
}

func styleName(s workload.SyncStyle) string {
	if s == workload.StyleNaive {
		return "naive"
	}
	return "scalable"
}

func (c cell) key() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.profile.Name, c.setup.Name, styleName(c.style), c.cores)
}

// grid builds the cross product of profiles x setups x styles, in that
// nesting order; nil profiles means all 19.
func grid(profiles, setups []string, styles []workload.SyncStyle, cores int) ([]cell, error) {
	ps := workload.Profiles()
	if profiles != nil {
		ps = ps[:0:0]
		for _, name := range profiles {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
	}
	var cells []cell
	for _, p := range ps {
		for _, sn := range setups {
			s, err := experiments.SetupByName(sn)
			if err != nil {
				return nil, err
			}
			for _, st := range styles {
				cells = append(cells, cell{profile: p, setup: s, style: st, cores: cores})
			}
		}
	}
	return cells, nil
}

// digest fingerprints a cell's result: SHA-256 over the JSON encoding
// of its Stats and Energy, the same bytes cbsimd serves.
func digest(st machine.Stats, e energy.Breakdown) (string, error) {
	b, err := json.Marshal(struct {
		Stats  machine.Stats
		Energy energy.Breakdown
	}{st, e})
	if err != nil {
		return "", fmt.Errorf("encoding stats: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runDirect runs one cell through experiments.RunBenchmark, serially and
// from a freshly built machine, as cmd/experiments does.
func runDirect(c cell) (experiments.Result, error) {
	return experiments.RunBenchmark(c.profile, c.setup, c.style,
		experiments.Options{Cores: c.cores, Parallelism: 1})
}

// writeGolden recomputes the digest of every cell any workload runs.
func writeGolden(path string) error {
	seen := map[string]cell{}
	for _, w := range workloads {
		for _, cores := range []int{w.cores, smokeCores} {
			cells, err := w.cells(cores)
			if err != nil {
				return err
			}
			for _, c := range cells {
				seen[c.key()] = c
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	g := make(map[string]string, len(keys))
	for _, k := range keys {
		res, err := runDirect(seen[k])
		if err != nil {
			return err
		}
		if g[k], err = digest(res.Stats, res.Energy); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
