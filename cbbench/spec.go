package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's workloads and metrics are declared once, here: the
// runner reports exactly these names, and -write-spec renders them as
// BENCHMARK.json (a test checks the committed file matches).

// workloadSpec is one named traffic mix the benchmark can run.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// cores is the simulated machine size of the workload's cells, and
	// cells lists them at a given size.
	cores int                             `json:"-"`
	cells func(cores int) ([]cell, error) `json:"-"`
	// run executes the workload for one invocation.
	run func(cfg runConfig) (*outcome, error) `json:"-"`
}

// metric is one reported number.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures by default.
const runSeconds = 15

var workloads = []workloadSpec{
	{Name: "fig21-mesi", cores: fig21Cores, cells: mesiCells, run: runFig21Mesi,
		Why: "Figure 21 Invalidation cells at 64 cores: cores spin on L1-resident lines, so cpu, the mesi L1 hit path, cache and per-op allocation do the work while the NoC idles"},
	{Name: "fig21-backoff", cores: fig21Cores, cells: backoffCells, run: runFig21Backoff,
		Why: "Figure 21 BackOff-0/5/10/15 cells at 64 cores on high-traffic profiles: LLC spinning makes noc, the vips bank, mem and the sim kernel do the work"},
	{Name: "fig21-callback", cores: fig21Cores, cells: callbackCells, run: runFig21Callback,
		Why: "Figure 21 CB-All/CB-One cells at 64 cores: cores park in the callback directory, so per-cell set-up and core wake/eviction paths dominate; bypasses the L1 hot path"},
	{Name: "cbsimd-cold", cores: serviceCores, cells: coldCells, run: runServiceCold,
		Why: "cbsimd over HTTP, 2 clients in a closed loop, every request a distinct 16-core cell: each job verifies, warm-starts from the pool, simulates and fills the cache"},
	{Name: "cbsimd-hit", cores: serviceCores, cells: hotCells, run: runServiceHit,
		Why: "cbsimd over HTTP, 2 clients in a closed loop, every request a cached 16-core cell: jobs bypass simulation, so queue, cache read, event stream and encoding do the work"},
}

// End-to-end metrics are defined for every workload. A unit of work is a
// Figure 21 cell, or one single-cell cbsimd job from submit to verified
// result.
var endToEnd = []metric{
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// hostLayers are the groups a CPU profile is folded into by leaf
// package; their <layer>.host_share metrics sum to 1.
var hostLayers = []string{
	"runtime", "sim", "cpu", "mesi", "vips", "cache", "noc", "mem", "core",
	"machine", "workload", "isa", "experiments", "trace", "obs", "service", "net", "format", "other",
}

// perLayer lists the traced run's metrics. Counts are totals per pass
// over the workload's cells (freshly simulated cells only for cbsimd);
// a metric that does not apply to a workload reads 0.
var perLayer = func() []metric {
	ms := []metric{
		{Name: "runtime.mallocs_per_memop", Unit: "allocs/op", Better: "lower"},
		{Name: "runtime.alloc_mb_per_cell", Unit: "MB", Better: "lower"},
		{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "cpu.instructions", Unit: "count", Better: "lower"},
		{Name: "cpu.memops", Unit: "count", Better: "lower"},
		{Name: "mesi.l1_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "noc.flit_hops", Unit: "count", Better: "lower"},
		{Name: "noc.messages", Unit: "count", Better: "lower"},
		{Name: "noc.link_wait_per_msg", Unit: "cycles", Better: "lower"},
		{Name: "vips.l1_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "vips.llc_accesses", Unit: "count", Better: "lower"},
		{Name: "mem.llc_misses", Unit: "count", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "machine.new_ms", Unit: "ms", Better: "lower"},
		{Name: "machine.load_ms", Unit: "ms", Better: "lower"},
		{Name: "machine.run_ms", Unit: "ms", Better: "lower"},
		{Name: "machine.stats_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.cell_self_ms", Unit: "ms", Better: "lower"},
		{Name: "core.cbdir_accesses", Unit: "count", Better: "lower"},
		{Name: "core.cb_wakes", Unit: "count", Better: "lower"},
		{Name: "core.stale_wake_ratio", Unit: "ratio", Better: "lower"},
		{Name: "core.cb_evictions", Unit: "count", Better: "lower"},
		{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
		{Name: "service.wait_ms", Unit: "ms", Better: "lower"},
		{Name: "service.result_ms", Unit: "ms", Better: "lower"},
		{Name: "service.simulate_ms", Unit: "ms", Better: "lower"},
		{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "service.rejects", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	}
	for _, l := range hostLayers {
		ms = append(ms, metric{Name: l + ".host_share", Unit: "share", Better: "lower"})
	}
	return ms
}()

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}{
		Command:    []string{"bash", "cbbench/run.sh"},
		Paths:      []string{"cbbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
