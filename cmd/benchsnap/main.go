// Command benchsnap captures a machine-readable performance snapshot of
// the simulator: hot-path ns/op and allocs/op via the testing package's
// programmatic benchmark driver, plus the aggregate simulated-cycles-
// per-wall-second rate from a small reference sweep (the same
// metrics.SimRate estimator the daemon exports at /metrics).
//
// Usage:
//
//	benchsnap [-o BENCH_pr.json] [-cores N] [-bench a,b,c]
//
// CI runs it via `make bench-snapshot` and uploads the JSON as an
// artifact, giving every PR a comparable perf record without blocking
// the gate on machine-speed-dependent thresholds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// snapshot is the BENCH_pr.json schema. Fields are stable: downstream
// tooling diffs snapshots across PRs.
type snapshot struct {
	GeneratedUnix int64                `json:"generated_unix"`
	GoVersion     string               `json:"go_version"`
	GOOS          string               `json:"goos"`
	GOARCH        string               `json:"goarch"`
	NumCPU        int                  `json:"num_cpu"`
	Benchmarks    map[string]benchPerf `json:"benchmarks"`
	SimRate       simRate              `json:"sim_rate"`
	Kernel        kernelTelemetry      `json:"kernel_telemetry"`
}

type benchPerf struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// kernelTelemetry is the two-tier scheduler's internal counters over the
// spin-wave reference workload: how much traffic the wheel absorbed
// versus the overflow heap, and the queue-depth high-water mark. These
// are diagnostics for reading a perf diff, not gated values.
type kernelTelemetry struct {
	WheelPushes uint64  `json:"wheel_pushes"`
	HeapPushes  uint64  `json:"heap_pushes"`
	Migrations  uint64  `json:"migrations"`
	Skips       uint64  `json:"skips"`
	MaxPending  uint64  `json:"max_pending_events"`
	WheelShare  float64 `json:"wheel_share"`
}

type simRate struct {
	Benchmarks      []string `json:"benchmarks"`
	Setup           string   `json:"setup"`
	Cores           int      `json:"cores"`
	Cells           uint64   `json:"cells"`
	SimulatedCycles uint64   `json:"simulated_cycles"`
	WallSeconds     float64  `json:"wall_seconds"`
	CyclesPerSecond float64  `json:"cycles_per_second"`
}

func main() {
	out := flag.String("o", "BENCH_pr.json", "output file")
	cores := flag.Int("cores", 16, "simulated cores for the sim-rate sweep")
	benchList := flag.String("bench", "radiosity,ocean,dedup", "benchmarks for the sim-rate sweep")
	flag.Parse()

	if err := run(*out, *cores, strings.Split(*benchList, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(out string, cores int, benches []string) error {
	snap := snapshot{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Benchmarks:    map[string]benchPerf{},
	}

	// Kernel hot path: one schedule + one step per iteration — the inner
	// loop of every simulated cycle. Must stay 0 allocs/op.
	snap.Benchmarks["kernel_hot_path"] = record(testing.Benchmark(func(b *testing.B) {
		k := sim.New()
		nop := k.Register(nopActor{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Schedule(1, nop, nil, 0)
			k.Step()
		}
	}))

	// Spin-wave: the ISSUE's target distribution — 64 parked cores with
	// known short-period wakes plus 1024 sparse far-future events. The
	// wheel must hold a decisive lead over the heap-only reference here;
	// the gate pins the ratio rather than absolute ns/op.
	snap.Benchmarks["spin_wave_wheel"] = record(testing.Benchmark(func(b *testing.B) {
		spinWave(b, sim.New())
	}))
	snap.Benchmarks["spin_wave_heap"] = record(testing.Benchmark(func(b *testing.B) {
		spinWave(b, sim.NewHeapOnly())
	}))

	// Telemetry from a fixed-length spin-wave run on the wheel kernel:
	// shows where events landed and the queue-depth high-water mark.
	{
		k := sim.New()
		spinWaveSetup(k)
		for i := 0; i < 1_000_000; i++ {
			k.Step()
		}
		tele := k.Telemetry()
		share := 0.0
		if tot := tele.WheelPushes + tele.HeapPushes; tot > 0 {
			share = float64(tele.WheelPushes) / float64(tot)
		}
		snap.Kernel = kernelTelemetry{
			WheelPushes: tele.WheelPushes,
			HeapPushes:  tele.HeapPushes,
			Migrations:  tele.Migrations,
			Skips:       tele.Skips,
			MaxPending:  tele.MaxPending,
			WheelShare:  share,
		}
	}

	// Full Table 2 machine construction (64 tiles, caches, directories).
	snap.Benchmarks["machine_new_64"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := machine.New(machine.Default(machine.ProtocolCallback), nil)
			if m.Mesh.Nodes() != 64 {
				b.Fatal("bad machine")
			}
		}
	}))

	// Program generation for one 64-core cell: fft under CB-All with the
	// scalable locks and barrier, the per-cell set-up that runs before a
	// machine is loaded.
	genP, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	snap.Benchmarks["generate_64"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := workload.Generate(genP, 64, workload.StyleScalable, synclib.FlavorCBAll); len(g.Programs) != 64 {
				b.Fatal("bad workload")
			}
		}
	}))

	// Snapshot fork: wall clock for the reduced Figure-21 grid, cold
	// (every cell builds its machine from scratch) versus warm (cells
	// fork from the zero-state snapshot pool). Min-of-2 damps scheduler
	// noise; the warm trio's first run also fills the pool, so the min
	// reflects steady-state forking.
	sweep := experiments.Options{Cores: cores, Benchmarks: []string{"radiosity", "fft", "dedup"}}
	coldWall, err := sweepWall(sweep)
	if err != nil {
		return err
	}
	warm := sweep
	warm.WarmStart = true
	warmWall, err := sweepWall(warm)
	if err != nil {
		return err
	}
	snap.Benchmarks["snapshot_fork_cold"] = benchPerf{NsPerOp: float64(coldWall.Nanoseconds()), Iterations: 3}
	snap.Benchmarks["snapshot_fork_warm"] = benchPerf{NsPerOp: float64(warmWall.Nanoseconds()), Iterations: 3}

	// Sim rate: a reference sweep under CB-One, folded through the same
	// SimRate estimator cbsimd exports as cbsimd_sim_cycles_per_wall_second.
	setup, err := experiments.SetupByName("CB-One")
	if err != nil {
		return err
	}
	var rate metrics.SimRate
	for _, name := range benches {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.RunBenchmark(p, setup, workload.StyleScalable, cellOptions(cores))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rate.Observe(res.Stats.Cycles, time.Since(start))
	}
	// Checkpoint-recording overhead: the same reference cell with the
	// recorder off (plain RunBenchmark) and on (RecordBenchmark at the
	// default digest-mark cadence). The gate bounds the on/off wall-clock
	// ratio; kernel_hot_path above is the recording-off 0 allocs/op
	// guarantee — the replay layer never touches the kernel's inner loop.
	ckP, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	ckOpts := cellOptions(cores)
	snap.Benchmarks["replay_record_off"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunBenchmark(ckP, setup, workload.StyleScalable, ckOpts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	snap.Benchmarks["replay_record_on"] = record(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RecordBenchmark(ckP, setup, workload.StyleScalable, ckOpts, replay.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Memory path: one full 64-core Invalidation cell, the Figure 21
	// case where every core spins on an L1-resident line. Its core ->
	// L1 -> core round trip allocates nothing, so allocs/op counts only
	// per-cell set-up and the misses' growth paths; the exact-match gate
	// pins that count.
	invSetup, err := experiments.SetupByName("Invalidation")
	if err != nil {
		return err
	}
	invP, err := workload.ByName("fft")
	if err != nil {
		return err
	}
	invOpts := cellOptions(64)
	snap.Benchmarks["invalidation_cell_64"], err = cellAllocs(20, func() error {
		_, err := experiments.RunBenchmark(invP, invSetup, workload.StyleScalable, invOpts)
		return err
	})
	if err != nil {
		return err
	}

	cells, cycles, wall := rate.Snapshot()
	snap.SimRate = simRate{
		Benchmarks:      benches,
		Setup:           setup.Name,
		Cores:           cores,
		Cells:           cells,
		SimulatedCycles: cycles,
		WallSeconds:     wall.Seconds(),
		CyclesPerSecond: rate.CyclesPerSecond(),
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s (kernel %.1f ns/op, %d allocs/op; sim %.3g cycles/s)\n",
		out, snap.Benchmarks["kernel_hot_path"].NsPerOp,
		snap.Benchmarks["kernel_hot_path"].AllocsPerOp,
		snap.SimRate.CyclesPerSecond)
	return nil
}

// cellOptions is the option set for single-cell measurements. A cell is
// one simulation, so Parallelism is pinned to 1: left at 0 it defaults
// to GOMAXPROCS, and above 1 the sweep runner wraps its log sink in a
// mutex-guarded closure. That adds allocations, so allocs/op would
// depend on the host's CPU count and the exact-match gate would not
// hold across hosts.
func cellOptions(cores int) experiments.Options {
	return experiments.Options{Cores: cores, Parallelism: 1}
}

// cellAllocs measures a whole simulation cell, whose per-op allocation
// count testing.Benchmark cannot pin: a cell is slow, so a one-second run
// has too few iterations to round away the runtime's few background
// allocations, and the count also moves with GOMAXPROCS (sync.Pool keeps
// per-P caches, so a goroutine that migrates between Ps misses). Here
// the cell runs n times in one window with GOMAXPROCS pinned to 1 and
// the collector run only between cells, at fixed points. The per-cell
// mean, rounded down, is then the same on every host.
func cellAllocs(n int, run func() error) (benchPerf, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := run(); err != nil { // warm-up: first-use allocations
		return benchPerf{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var busy time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return benchPerf{}, err
		}
		busy += time.Since(start)
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	return benchPerf{
		NsPerOp:     float64(busy.Nanoseconds()) / float64(n),
		AllocsPerOp: int64((after.Mallocs - before.Mallocs) / uint64(n)),
		BytesPerOp:  int64((after.TotalAlloc - before.TotalAlloc) / uint64(n)),
		Iterations:  n,
	}, nil
}

// nopActor is an event target that does nothing: it isolates the
// kernel's own schedule+step cost.
type nopActor struct{}

func (nopActor) Act(*memtypes.Message, uint64) {}

// spinWaveActor models a parked core with a known next wake: it fires
// and immediately reschedules itself period cycles out.
type spinWaveActor struct {
	k      *sim.Kernel
	self   sim.ActorID
	period uint64
}

func (a *spinWaveActor) Act(*memtypes.Message, uint64) {
	a.k.Schedule(a.period, a.self, nil, 0)
}

// spinWaveSetup populates k with the spin-wave distribution: 64 spinners
// on short staggered periods plus 1024 sparse far-future events. Mirrors
// BenchmarkKernelSpinWave in internal/sim.
func spinWaveSetup(k *sim.Kernel) {
	const spinners = 64
	sp := make([]spinWaveActor, spinners)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		sp[i].self = k.Register(&sp[i])
		k.Schedule(sp[i].period, sp[i].self, nil, 0)
	}
	idle := &spinWaveActor{k: k, period: 2_000_000_000}
	idle.self = k.Register(idle)
	for i := 0; i < 1024; i++ {
		k.At(1_000_000_000+uint64(i), idle.self, nil, 0)
	}
}

func spinWave(b *testing.B, k *sim.Kernel) {
	spinWaveSetup(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// sweepWall times one full reduced Figure-21 sweep, min of three runs.
func sweepWall(o experiments.Options) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := experiments.RunSuite(experiments.StandardSetups(), workload.StyleScalable, o); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func record(r testing.BenchmarkResult) benchPerf {
	return benchPerf{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}
