package main

import (
	"bytes"
	"maps"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// smoke runs one workload at the reduced scale for a single pass (the
// traced schedule still makes its three).
func smoke(t *testing.T, w workloadSpec, seed uint64, trace bool) *outcome {
	t.Helper()
	o, err := w.run(runConfig{seed: seed, seconds: 1e-3, trace: trace, cores: smokeCores})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("%s (trace=%v): %d of %d failed: %v", w.Name, trace, o.failed, o.attempted, o.errs)
	}
	if _, err := report(o, trace); err != nil {
		t.Fatalf("%s (trace=%v): %v", w.Name, trace, err)
	}
	return o
}

// TestSmoke runs every workload, untraced and traced, at 4 cores: the
// oracle must pass, every metric must be reported, and the host shares
// of the traced run must sum to 1.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := smoke(t, w, 1, false)
			for _, m := range endToEnd {
				if v := o.metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			o = smoke(t, w, 1, true)
			var sum float64
			for _, l := range hostLayers {
				sum += o.metrics[l+".host_share"]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("host shares sum to %v, want 1", sum)
			}
			if v := o.metrics["trace.overhead_ratio"]; !(v > 0) {
				t.Errorf("trace.overhead_ratio = %v", v)
			}
		})
	}
}

// TestHeldOutSeed checks a seed only reorders the work: two seeds give
// the same per-cell digests and the same cold/hit counts.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := smoke(t, w, 1, false), smoke(t, w, 7, false)
			if !maps.Equal(a.digests, b.digests) {
				t.Errorf("digests differ between seeds: %d vs %d cells", len(a.digests), len(b.digests))
			}
			if a.cold != b.cold || a.hit != b.hit {
				t.Errorf("cold/hit %d/%d with seed 1, %d/%d with seed 7", a.cold, a.hit, b.cold, b.hit)
			}
		})
	}
}

// TestOrderIsSeeded checks the seed does change the order.
func TestOrderIsSeeded(t *testing.T) {
	if a, b := order(1, 0, 50), order(2, 0, 50); slices.Equal(a, b) {
		t.Fatal("seeds 1 and 2 give the same order")
	}
	if a, b := order(1, 0, 50), order(1, 0, 50); !slices.Equal(a, b) {
		t.Fatal("one seed gives two orders")
	}
}

// TestLeafWeightsDecodesCyclesProfile decodes a profile written by the
// repository's own profile.proto encoder, whose sample values are known.
func TestLeafWeightsDecodesCyclesProfile(t *testing.T) {
	st := &cycles.MachineStack{Cores: make([]cycles.CoreStack, 2)}
	st.Cores[0].ByPhase[isa.SyncKind(0)][cycles.Category(0)] = 7
	st.Cores[0].ByPhase[isa.SyncKind(1)][cycles.Category(0)] = 5
	st.Cores[1].ByPhase[isa.SyncKind(0)][cycles.Category(2)] = 11
	var buf bytes.Buffer
	if err := cycles.WritePprof(&buf, []cycles.SetupStack{{Setup: "CB-One", Stack: st}}); err != nil {
		t.Fatal(err)
	}
	got, err := leafWeights(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{cycles.Category(0).String(): 12, cycles.Category(2).String(): 11}
	if !maps.Equal(got, want) {
		t.Fatalf("leaf weights %v, want %v", got, want)
	}
}

//go:noinline
func spin(d time.Duration) (n uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += uint64(i) * n
		}
	}
	return n
}

// TestFoldRuntimeProfile folds a real runtime/pprof CPU profile.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, err := leafWeights(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if leaves["repro/cbbench.spin"] == 0 && leaves["main.spin"] == 0 {
		t.Fatalf("no samples in spin: %v", leaves)
	}
	var sum float64
	for _, s := range foldByLayer(leaves) {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/noc.(*Mesh).Send":               "noc",
		"repro/internal/isa/verify.Threads":             "isa",
		"repro/internal/sim.(*heap[go.shape.int]).push": "sim",
		"repro/internal/digest.U64":                     "other",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).Get":              "runtime",
		"net/http.(*conn).serve":                        "net",
		"encoding/json.(*decodeState).object":           "format",
		"fmt.Sprintf":                                   "format",
		"gcWriteBarrier":                                "runtime",
		"sync/atomic.(*Uint64).Add":                     "runtime",
		"repro/internal/trace.Multi.Emit":               "trace",
		"sort.Strings":                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the workload and metric tables (regenerate with -write-spec).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: run the benchmark with -write-spec BENCHMARK.json from the repository root")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
