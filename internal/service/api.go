// Package service is the simulation-as-a-service layer: an HTTP/JSON
// daemon (cmd/cbsimd) that queues simulation jobs, fans their
// (benchmark x setup) cells over a bounded worker pool layered on
// experiments.Options.Parallelism, streams per-cell progress as NDJSON,
// and serves results from a content-addressed LRU cache keyed by a
// canonical hash of the full cell configuration. Because every
// simulation is deterministic (see EXPERIMENTS.md), cached and freshly
// simulated cells are byte-identical.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// DefaultVersionSalt tags cache keys with the simulator generation.
// Bump it whenever a change makes old cached results stale (protocol
// fixes, timing model changes): the salt is hashed into every cell key,
// so bumping it invalidates the whole cache at once.
const DefaultVersionSalt = "cbsim/v3"

// DefaultLimitCycles is the per-cell simulation cycle budget, matching
// experiments.Options.Limit's default.
const DefaultLimitCycles = 200_000_000

// JobRequest is the body of POST /v1/jobs. A single cell names one
// benchmark and one setup; a sweep lists several of either (or leaves
// them empty, meaning all 19 benchmarks / all 7 standard setups). The
// job's cells are the cross product benchmarks x setups.
type JobRequest struct {
	// Benchmark / Setup submit a single cell (shorthand for one-element
	// lists; may be combined with the list fields).
	Benchmark string `json:"benchmark,omitempty"`
	Setup     string `json:"setup,omitempty"`
	// Benchmarks / Setups submit a sweep. Empty means "all".
	Benchmarks []string `json:"benchmarks,omitempty"`
	Setups     []string `json:"setups,omitempty"`
	// Cores is the simulated core count (perfect square <= 64,
	// default 64).
	Cores int `json:"cores,omitempty"`
	// Style is the synchronization style: "scalable" (CLH + TreeSR,
	// default) or "naive" (T&T&S + SR).
	Style string `json:"style,omitempty"`
	// Entries sizes the callback directories (default 4).
	Entries int `json:"entries,omitempty"`
	// LimitCycles is the per-cell simulation cycle budget
	// (default 200M).
	LimitCycles uint64 `json:"limit_cycles,omitempty"`
	// Parallelism bounds the worker goroutines this job's cells may use
	// (clamped to the server's limit; default: the server's limit).
	Parallelism int `json:"parallelism,omitempty"`
	// Trace requests a Chrome trace-event (catapult) capture of the
	// simulation, retrievable at GET /v1/jobs/{id}/trace once the job is
	// done. Only single-cell jobs may be traced, and a traced cell is
	// always freshly simulated (never served from cache) so the trace
	// matches the reported result.
	Trace bool `json:"trace,omitempty"`
	// Checkpoints records the simulation for time-travel debugging:
	// digest marks every CheckpointInterval cycles plus a live replay
	// cursor ring, retrievable through GET /v1/jobs/{id}/replay (windowed
	// re-execution, optionally traced) and GET /v1/jobs/{id}/bisect
	// (first-divergence search against another setup). Only single-cell
	// jobs may be checkpointed, and a checkpointed cell is always freshly
	// simulated — the recording must be the run the result reports.
	Checkpoints bool `json:"checkpoints,omitempty"`
	// CheckpointInterval is the digest-mark cadence K in cycles
	// (default replay.DefaultInterval). Ignored without Checkpoints.
	CheckpointInterval uint64 `json:"checkpoint_interval,omitempty"`
	// Cycles attaches the cycle-accounting layer to every cell: each
	// cell's Stats carry the per-core cycle stack, and the aggregated
	// per-setup breakdown is retrievable at GET /v1/jobs/{id}/cycles.
	// Cycle-accounted cells hash to distinct cache keys (the stack is
	// part of the payload), so plain jobs keep their smaller entries.
	Cycles bool `json:"cycles,omitempty"`
}

// CellSpec is one fully-normalized (benchmark x setup) simulation cell:
// every field is explicit, defaults filled in and style lower-cased, so
// equivalent requests produce identical specs — the property the
// content-addressed cache key relies on.
type CellSpec struct {
	Benchmark string `json:"benchmark"`
	Setup     string `json:"setup"`
	Cores     int    `json:"cores"`
	Style     string `json:"style"`
	Entries   int    `json:"entries"`
	Limit     uint64 `json:"limit"`
	// Cycles marks a cycle-accounted cell; it is part of the cache key
	// because the payload differs (Stats.CycleStack present).
	Cycles bool `json:"cycles,omitempty"`
}

// Key returns the content address of this cell's result: a hex SHA-256
// over the version salt and the canonical JSON encoding of the spec.
// Two equivalent job specs (defaults elided vs. spelled out, style case
// differences) hash identically; changing the salt changes every key.
func (c CellSpec) Key(salt string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", salt)
	// encoding/json serializes struct fields in declaration order, so
	// the encoding is canonical for a normalized spec.
	if err := json.NewEncoder(h).Encode(c); err != nil {
		panic(fmt.Sprintf("service: hashing CellSpec: %v", err)) // cannot fail: fixed struct
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SyncStyle maps the spec's style string to the workload enum. The spec
// must be normalized (via Cells).
func (c CellSpec) SyncStyle() workload.SyncStyle {
	if c.Style == "naive" {
		return workload.StyleNaive
	}
	return workload.StyleScalable
}

// Cells validates and normalizes a request into its cell cross product.
// All errors are user errors (HTTP 400).
func (r JobRequest) Cells() ([]CellSpec, error) {
	benchmarks, err := r.benchmarkNames()
	if err != nil {
		return nil, err
	}
	setups, err := r.setupNames()
	if err != nil {
		return nil, err
	}
	cores := r.Cores
	if cores == 0 {
		cores = 64
	}
	if err := machine.ValidateCores(cores); err != nil {
		return nil, err
	}
	style := strings.ToLower(strings.TrimSpace(r.Style))
	switch style {
	case "":
		style = "scalable"
	case "scalable", "naive":
	default:
		return nil, fmt.Errorf("unknown style %q (want scalable or naive)", r.Style)
	}
	entries := r.Entries
	if entries == 0 {
		entries = 4
	}
	if entries < 0 {
		return nil, fmt.Errorf("entries must be positive (got %d)", entries)
	}
	limit := r.LimitCycles
	if limit == 0 {
		limit = DefaultLimitCycles
	}
	cells := make([]CellSpec, 0, len(benchmarks)*len(setups))
	for _, b := range benchmarks {
		for _, s := range setups {
			cells = append(cells, CellSpec{
				Benchmark: b, Setup: s,
				Cores: cores, Style: style, Entries: entries, Limit: limit,
				Cycles: r.Cycles,
			})
		}
	}
	return cells, nil
}

// benchmarkNames resolves the requested benchmark set (deduplicated, in
// request order; empty request means all profiles).
func (r JobRequest) benchmarkNames() ([]string, error) {
	names := r.Benchmarks
	if r.Benchmark != "" {
		names = append([]string{r.Benchmark}, names...)
	}
	if len(names) == 0 {
		var all []string
		for _, p := range workload.Profiles() {
			all = append(all, p.Name)
		}
		return all, nil
	}
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if _, err := workload.ByName(n); err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out, nil
}

// setupNames resolves the requested setup set (deduplicated, in request
// order; empty request means all standard setups).
func (r JobRequest) setupNames() ([]string, error) {
	names := r.Setups
	if r.Setup != "" {
		names = append([]string{r.Setup}, names...)
	}
	if len(names) == 0 {
		var all []string
		for _, s := range experiments.StandardSetups() {
			all = append(all, s.Name)
		}
		return all, nil
	}
	seen := make(map[string]bool, len(names))
	var out []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if _, err := experiments.SetupByName(n); err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out, nil
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
	StateRetryable = "retryable" // failed by drain/shutdown: safe to resubmit
)

// JobStatus is the client-visible state of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	CellsDone int    `json:"cells_done"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
	// Retryable marks jobs that failed without running (queue drained on
	// shutdown): resubmitting the identical request is safe and will
	// reuse any cells that did complete via the cache.
	Retryable bool `json:"retryable,omitempty"`
}

// Event is one NDJSON line of GET /v1/jobs/{id}/events.
type Event struct {
	Type      string  `json:"type"` // job_queued|job_started|cell_start|cell_done|job_done|job_failed|job_canceled|job_retryable
	Job       string  `json:"job"`
	Cell      int     `json:"cell,omitempty"`  // 1-based cell index
	Cells     int     `json:"cells,omitempty"` // total cells in the job
	Benchmark string  `json:"benchmark,omitempty"`
	Setup     string  `json:"setup,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Cycles    uint64  `json:"cycles,omitempty"`  // simulated cycles (cell_done)
	WallMS    float64 `json:"wall_ms,omitempty"` // wall-clock simulation time (cell_done)
	Error     string  `json:"error,omitempty"`
}

// cellPayload is what the cache stores and the result endpoint serves
// per cell. It deliberately excludes anything run-dependent (wall time,
// cache state) so cached and fresh cells are byte-identical.
type cellPayload struct {
	Spec   CellSpec         `json:"spec"`
	Stats  machine.Stats    `json:"stats"`
	Energy energy.Breakdown `json:"energy"`
}

// CellResult is one cell of a job result. Data is the cached/serialized
// cellPayload ({"spec":…,"stats":…,"energy":…}); Cached and WallMS
// describe how this particular job obtained it — Data itself is
// byte-identical whichever way (the determinism contract).
type CellResult struct {
	Cached bool            `json:"cached"`
	WallMS float64         `json:"wall_ms,omitempty"`
	Data   json.RawMessage `json:"data"`
}

// JobResult is the body of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID    string       `json:"id"`
	Cells []CellResult `json:"cells"`
}

// ReplayResponse is the body of GET /v1/jobs/{id}/replay without
// trace=true: the mid-run Stats (and their energy accounting) at the
// window's end boundary, plus the recording's geometry. With trace=true
// the endpoint serves the window's Chrome trace JSON instead.
type ReplayResponse struct {
	ID string `json:"id"`
	// From/To are the replayed window (To clamped to End).
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	// End is the recording's exclusive end boundary [0,End).
	End uint64 `json:"end"`
	// Interval is the digest-mark cadence K; Marks the mark count.
	Interval uint64           `json:"interval"`
	Marks    int              `json:"marks"`
	Stats    machine.Stats    `json:"stats"`
	Energy   energy.Breakdown `json:"energy"`
}

// BisectResponse is the body of GET /v1/jobs/{id}/bisect?against=SETUP:
// the first-divergence report between the job's cell and the same cell
// under another setup.
type BisectResponse struct {
	ID string `json:"id"`
	A  string `json:"a"`
	B  string `json:"b"`
	// Scope is "full" (DigestCompatible sides) or "arch".
	Scope         string `json:"scope"`
	Interval      uint64 `json:"interval"`
	MarksCompared int    `json:"marks_compared"`
	Diverged      bool   `json:"diverged"`
	// Cycle and Components locate the first divergence (when Diverged).
	Cycle      uint64   `json:"cycle,omitempty"`
	Components []string `json:"components,omitempty"`
	AEvent     string   `json:"a_event,omitempty"`
	BEvent     string   `json:"b_event,omitempty"`
	AEnd       uint64   `json:"a_end"`
	BEnd       uint64   `json:"b_end"`
	// Report is the rendered human-readable report.
	Report string `json:"report"`
}

// VerifyResponse is the body of POST /v1/verify: the static-verification
// report for a submitted thread-program set. The analysis itself always
// succeeds (a malformed request body is the only 400); OK says whether
// the programs passed, and Diagnostics carries every per-instruction
// finding when they did not.
type VerifyResponse struct {
	OK   bool   `json:"ok"`
	Mode string `json:"mode"`
	// Budget is the worst-case cycle budget summed across threads;
	// CycleLimit adds the slack a runner should use as its watchdog.
	Budget     uint64 `json:"budget"`
	CycleLimit uint64 `json:"cycle_limit"`
	// Threads holds the per-thread breakdown, in submission order.
	Threads []VerifyThread `json:"threads"`
	// Diagnostics lists every finding (rendered, thread-tagged).
	Diagnostics []string `json:"diagnostics,omitempty"`
}

// VerifyThread is one thread's slice of a VerifyResponse.
type VerifyThread struct {
	Budget    uint64 `json:"budget"`
	SpinSites int    `json:"spin_sites"`
	Barriers  int    `json:"barriers"`
	MemOps    int    `json:"mem_ops"`
	Findings  int    `json:"findings"`
}

// CyclesResponse is the body of GET /v1/jobs/{id}/cycles: the job's
// cycle-stack breakdown aggregated per setup across its benchmarks.
// 404 unless the job was submitted with cycles=true.
type CyclesResponse struct {
	ID     string        `json:"id"`
	Setups []SetupCycles `json:"setups"`
}

// SetupCycles is one setup's aggregate cycle attribution: total core
// cycles across the job's cells under this setup, split by category.
// Categories sum to TotalCycles (conservation holds per cell, so it
// holds for the sum).
type SetupCycles struct {
	Setup       string            `json:"setup"`
	TotalCycles uint64            `json:"total_cycles"`
	Categories  map[string]uint64 `json:"categories"`
}
