package cycles

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/trace"
)

// observe drives an accumulator with one event of core. A send or
// deliver carries the core as its message's tag.
func observe(a *Accumulator, core int, k trace.Kind, cycle, x, y uint64) {
	e := trace.Event{Kind: k, Cycle: cycle, Node: memtypes.NodeID(core), A: x, B: y}
	if k == trace.KindSend || k == trace.KindDeliver {
		e.B = uint64(core) << 32
	}
	a.Emit(e)
}

// feed is shorthand for driving an accumulator with one core.
func feed(a *Accumulator, k trace.Kind, cycle, x, y uint64) { observe(a, 0, k, cycle, x, y) }

func TestExecReclassifiesSpinAndBarrier(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindExec, 0, 10, uint64(isa.SyncNone))
	feed(a, trace.KindExec, 0, 7, uint64(isa.SyncAcquire))
	feed(a, trace.KindExec, 0, 5, uint64(isa.SyncBarrier))
	feed(a, trace.KindExec, 0, 3, uint64(isa.SyncRelease))
	feed(a, trace.KindDone, 25, 0, 0)
	ms := a.Snapshot(25)
	tot := ms.Totals()
	if tot[CatCompute] != 13 { // 10 none + 3 release
		t.Errorf("compute = %d, want 13", tot[CatCompute])
	}
	if tot[CatSpinWait] != 7 {
		t.Errorf("spin_wait = %d, want 7", tot[CatSpinWait])
	}
	if tot[CatBarrierWait] != 5 {
		t.Errorf("barrier_wait = %d, want 5", tot[CatBarrierWait])
	}
	if err := a.CheckConservation(25); err != nil {
		t.Fatal(err)
	}
}

func TestStallSegmentsClampedOverlapsAndGaps(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindExec, 0, 10, uint64(isa.SyncNone)) // mark = 10
	feed(a, trace.KindStallBegin, 10, uint64(isa.SyncNone), uint64(CatL1Stall))
	feed(a, trace.KindSpan, 12, 14, uint64(CatNoC))      // [12,14) NoC
	feed(a, trace.KindSpan, 13, 16, uint64(CatLLCStall)) // overlaps; first claim wins -> [14,16)
	feed(a, trace.KindStallEnd, 18, 0, 0)                // gaps [10,12) and [16,18) -> L1 default
	feed(a, trace.KindDone, 18, 0, 0)
	ms := a.Snapshot(18)
	tot := ms.Totals()
	want := map[Category]uint64{CatCompute: 10, CatL1Stall: 4, CatNoC: 2, CatLLCStall: 2}
	for cat, n := range want {
		if tot[cat] != n {
			t.Errorf("%s = %d, want %d", cat, tot[cat], n)
		}
	}
	if err := a.CheckConservation(18); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLegCommitsProvisionallyAtHorizon(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindStallBegin, 0, uint64(isa.SyncWait), uint64(CatL1Stall))
	feed(a, trace.KindOpen, 5, uint64(CatCBBlocked), 0)
	// No close, no stall end: the snapshot closes and commits at the
	// horizon without perturbing live state.
	ms := a.Snapshot(20)
	tot := ms.Totals()
	if tot[CatCBBlocked] != 15 {
		t.Errorf("cb_blocked = %d, want 15", tot[CatCBBlocked])
	}
	// The gap [0,5) falls to the default, reclassified: L1 time inside a
	// wait phase is the spin loop itself.
	if tot[CatSpinWait] != 5 {
		t.Errorf("spin_wait = %d, want 5", tot[CatSpinWait])
	}
	// Live state unperturbed: a later stall end commits the real window.
	feed(a, trace.KindClose, 30, 0, 0)
	feed(a, trace.KindStallEnd, 40, 0, 0)
	feed(a, trace.KindDone, 40, 0, 0)
	if err := a.CheckConservation(40); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot(40).Totals()[CatCBBlocked]; got != 25 {
		t.Errorf("cb_blocked after real commit = %d, want 25", got)
	}
}

func TestSnapshotFillsIdleAfterDone(t *testing.T) {
	a := NewAccumulator(2)
	observe(a, 0, trace.KindExec, 0, 10, uint64(isa.SyncNone))
	observe(a, 0, trace.KindDone, 10, 0, 0)
	observe(a, 1, trace.KindExec, 0, 20, uint64(isa.SyncNone))
	observe(a, 1, trace.KindDone, 20, 0, 0)
	ms := a.Snapshot(20)
	if got := ms.Cores[0].Categories()[CatIdle]; got != 10 {
		t.Errorf("core 0 idle = %d, want 10", got)
	}
	if got := ms.Cores[1].Categories()[CatIdle]; got != 0 {
		t.Errorf("core 1 idle = %d, want 0", got)
	}
	if err := a.CheckConservation(20); err != nil {
		t.Fatal(err)
	}
	if ms.TotalCycles() != 40 {
		t.Errorf("TotalCycles = %d, want 40", ms.TotalCycles())
	}
}

func TestBackoffWaitCategory(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindSpinWait, 0, 8, uint64(isa.SyncWait))
	feed(a, trace.KindSpinWait, 0, 4, uint64(isa.SyncBarrier))
	feed(a, trace.KindDone, 12, 0, 0)
	tot := a.Snapshot(12).Totals()
	if tot[CatSpinWait] != 8 || tot[CatBarrierWait] != 4 {
		t.Errorf("spin=%d barrier=%d, want 8/4", tot[CatSpinWait], tot[CatBarrierWait])
	}
}

func TestNoCMsgCyclesUnionOfIntervals(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindSend, 0, 0, 0)
	feed(a, trace.KindSend, 5, 0, 0) // nested: union, not sum
	feed(a, trace.KindDeliver, 8, 0, 0)
	feed(a, trace.KindDeliver, 10, 0, 0)
	feed(a, trace.KindSend, 20, 0, 0)
	ms := a.Snapshot(25) // open interval [20,25) counts to the horizon
	if ms.NoCMsgCycles != 15 {
		t.Errorf("NoCMsgCycles = %d, want 15 (10 closed + 5 open)", ms.NoCMsgCycles)
	}
}

func TestOutOfRangeCoreDropped(t *testing.T) {
	a := NewAccumulator(2)
	observe(a, 7, trace.KindExec, 0, 100, 0) // mesh tag beyond the core count
	observe(a, -1, trace.KindExec, 0, 100, 0)
	for i, c := range a.Snapshot(0).Cores {
		if c.Total() != 0 {
			t.Errorf("core %d total = %d, want 0", i, c.Total())
		}
	}
}

func TestWriteFolded(t *testing.T) {
	a := NewAccumulator(1)
	feed(a, trace.KindExec, 0, 10, uint64(isa.SyncNone))
	feed(a, trace.KindExec, 0, 4, uint64(isa.SyncAcquire))
	feed(a, trace.KindDone, 14, 0, 0)
	var b strings.Builder
	if err := WriteFolded(&b, []SetupStack{{Setup: "CB-One", Stack: a.Snapshot(14)}}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"CB-One;core00;phase:none;compute 10\n",
		"CB-One;core00;phase:acquire;spin_wait 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("folded output has %d lines, want 2 (zero cells elided):\n%s", n, out)
	}
}

// Steady-state accounting must be allocation-free: the only allocations
// are the segment slice's initial growth, reused across stalls via
// segs[:0]. This is the hot-path half of the purity contract.
func TestObserveZeroAllocsSteadyState(t *testing.T) {
	a := NewAccumulator(4)
	cycle := uint64(0)
	stall := func() {
		for core := 0; core < 4; core++ {
			c := uint64(core)
			observe(a, core, trace.KindExec, 0, 5, uint64(isa.SyncAcquire))
			observe(a, core, trace.KindStallBegin, cycle+c, uint64(isa.SyncAcquire), uint64(CatL1Stall))
			observe(a, core, trace.KindSend, cycle+c, 0, 0)
			observe(a, core, trace.KindOpen, cycle+c, uint64(CatNoC), 0)
			observe(a, core, trace.KindDeliver, cycle+c+4, 0, 0)
			observe(a, core, trace.KindClose, cycle+c+4, 0, 0)
			observe(a, core, trace.KindSpan, cycle+c+4, cycle+c+6, uint64(CatLLCStall))
			observe(a, core, trace.KindStallEnd, cycle+c+8, 0, 0)
		}
		cycle += 16
	}
	stall() // warm the segment slices
	allocs := testing.AllocsPerRun(500, stall)
	if allocs != 0 {
		t.Fatalf("steady-state accounting allocated %.1f times per stall round, want 0", allocs)
	}
}
