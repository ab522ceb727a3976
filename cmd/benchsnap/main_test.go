package main

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// TestCellOptionsAllocsIndependentOfGOMAXPROCS pins the property the
// perf gate relies on: a single-cell measurement allocates the same
// number of objects whatever GOMAXPROCS is, so the committed allocs/op
// baseline matches on hosts with any CPU count.
func TestCellOptionsAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc counts are not exact under the race detector")
	}
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := experiments.SetupByName("CB-One")
	if err != nil {
		t.Fatal(err)
	}
	opts := cellOptions(4)
	// Count mallocs by hand: testing.AllocsPerRun forces GOMAXPROCS to
	// 1. The collector is off while counting, because a GC cycle makes
	// a few allocations of its own and would blur an exact comparison.
	const runs = 10
	allocsPerRun := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		run := func() {
			if _, err := experiments.RunBenchmark(p, setup, workload.StyleScalable, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm lazily initialized state
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	one, two := allocsPerRun(1), allocsPerRun(2)
	if one != two {
		t.Fatalf("single-cell run allocates %d objects at GOMAXPROCS=1 but %d at GOMAXPROCS=2", one, two)
	}
}

// TestCellAllocsRepeatable pins what the exact-match gate needs from
// cellAllocs: two measurements of the same cell agree, and the caller's
// GOMAXPROCS is restored afterwards.
func TestCellAllocsRepeatable(t *testing.T) {
	if raceEnabled {
		t.Skip("malloc counts are not exact under the race detector")
	}
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := experiments.SetupByName("Invalidation")
	if err != nil {
		t.Fatal(err)
	}
	run := func() error {
		_, err := experiments.RunBenchmark(p, setup, workload.StyleScalable, cellOptions(4))
		return err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	first, err := cellAllocs(10, run)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cellAllocs(10, run)
	if err != nil {
		t.Fatal(err)
	}
	if first.AllocsPerOp != second.AllocsPerOp {
		t.Fatalf("one cell measured %d then %d allocs", first.AllocsPerOp, second.AllocsPerOp)
	}
	if got := runtime.GOMAXPROCS(0); got != 2 {
		t.Fatalf("GOMAXPROCS = %d after cellAllocs, want the caller's 2", got)
	}
}
