package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/sim"
)

// fakePort is a flat memory with a fixed response latency. Racy and plain
// ops behave identically; RMWs apply atomically at response time.
type fakePort struct {
	k       *sim.Kernel
	latency uint64
	mem     map[memtypes.Addr]uint64
	log     []memtypes.OpKind
	syncOps int
}

func newFakePort(k *sim.Kernel, latency uint64) *fakePort {
	return &fakePort{k: k, latency: latency, mem: make(map[memtypes.Addr]uint64)}
}

func (p *fakePort) Access(req *memtypes.Request, done memtypes.Completer) {
	p.log = append(p.log, req.Kind)
	if req.Sync {
		p.syncOps++
	}
	p.k.Schedule(p.latency, func() {
		var resp memtypes.Response
		switch req.Kind {
		case memtypes.OpRead, memtypes.OpReadThrough, memtypes.OpReadCB:
			resp.Value = p.mem[req.Addr.Word()]
		case memtypes.OpWrite, memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
			p.mem[req.Addr.Word()] = req.Value
		case memtypes.OpRMW:
			old := p.mem[req.Addr.Word()]
			newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
			if writes {
				p.mem[req.Addr.Word()] = newVal
			}
			resp.Value = old
		case memtypes.OpFenceSelfInvl, memtypes.OpFenceSelfDown:
			// no-op
		}
		done.Complete(resp)
	})
}

func runProgram(t *testing.T, prog *isa.Program, setup func(*Core, *fakePort)) (*Core, *fakePort, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	p := newFakePort(k, 3)
	var c *Core
	c = New(k, 0, p, DefaultConfig(0), nil, nil)
	if setup != nil {
		setup(c, p)
	}
	c.Run(prog, 0)
	if err := k.Run(2_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !c.Done() {
		t.Fatal("core did not finish")
	}
	return c, p, k
}

func TestALUAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	prog := isa.NewBuilder().
		Imm(isa.R1, 10). // counter
		Imm(isa.R2, 0).  // sum
		Label("loop").
		Add(isa.R2, isa.R2, isa.R1).
		Addi(isa.R1, isa.R1, ^uint64(0)).
		Bnez(isa.R1, "loop").
		Done().
		MustBuild()
	c, _, _ := runProgram(t, prog, nil)
	if got := c.Reg(isa.R2); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

func TestLoadStoreRoundtrip(t *testing.T) {
	prog := isa.NewBuilder().
		Imm(isa.R1, 0x100).
		Imm(isa.R2, 77).
		St(isa.R1, 0, isa.R2).
		Ld(isa.R3, isa.R1, 0).
		StThrough(isa.R1, 8, isa.R2).
		LdThrough(isa.R4, isa.R1, 8).
		Done().
		MustBuild()
	c, p, _ := runProgram(t, prog, nil)
	if c.Reg(isa.R3) != 77 || c.Reg(isa.R4) != 77 {
		t.Fatalf("r3=%d r4=%d, want 77/77", c.Reg(isa.R3), c.Reg(isa.R4))
	}
	want := []memtypes.OpKind{memtypes.OpWrite, memtypes.OpRead, memtypes.OpWriteThrough, memtypes.OpReadThrough}
	if len(p.log) != len(want) {
		t.Fatalf("issued %d mem ops, want %d", len(p.log), len(want))
	}
	for i, k := range want {
		if p.log[i] != k {
			t.Fatalf("op %d = %s, want %s", i, p.log[i], k)
		}
	}
}

func TestRMWTestAndSetSpin(t *testing.T) {
	// T&S loop: first iteration finds the lock taken (preset 1); the
	// test releases it out-of-band after a few cycles via a second
	// writer... simplified: preset lock free and check single acquire.
	prog := isa.NewBuilder().
		Imm(isa.R1, 0x200).
		TAS(isa.R2, isa.R1, 0, false, memtypes.CBZero).
		Done().
		MustBuild()
	c, p, _ := runProgram(t, prog, nil)
	if c.Reg(isa.R2) != 0 {
		t.Fatalf("t&s on free lock returned %d, want 0", c.Reg(isa.R2))
	}
	if p.mem[0x200] != 1 {
		t.Fatalf("lock = %d after t&s, want 1", p.mem[0x200])
	}
}

func TestRMWWithRegisterArg(t *testing.T) {
	// CLH-style fetch&store: swap my node pointer into the lock tail.
	prog := isa.NewBuilder().
		Imm(isa.R1, 0x300). // lock address
		Imm(isa.R2, 0xAB0). // my node
		FetchStore(isa.R3, isa.R1, 0, isa.R2, memtypes.CBAll).
		Done().
		MustBuild()
	c, p, _ := runProgram(t, prog, func(c *Core, p *fakePort) {
		p.mem[0x300] = 0x990 // previous tail
	})
	if c.Reg(isa.R3) != 0x990 {
		t.Fatalf("f&s returned %d, want previous tail 0x990", c.Reg(isa.R3))
	}
	if p.mem[0x300] != 0xAB0 {
		t.Fatalf("tail = %#x, want 0xAB0", p.mem[0x300])
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	prog := isa.NewBuilder().
		Compute(500).
		Done().
		MustBuild()
	c, _, _ := runProgram(t, prog, nil)
	if c.Stats().DoneAt < 500 {
		t.Fatalf("DoneAt = %d, want >= 500", c.Stats().DoneAt)
	}
	if c.Stats().ComputeCycles != 500 {
		t.Fatalf("ComputeCycles = %d, want 500", c.Stats().ComputeCycles)
	}
}

func TestSyncAttribution(t *testing.T) {
	prog := isa.NewBuilder().
		SyncBegin(isa.SyncAcquire).
		Imm(isa.R1, 0x40).
		LdThrough(isa.R2, isa.R1, 0). // sync-flagged
		SyncEnd(isa.SyncAcquire).
		Ld(isa.R3, isa.R1, 0). // not sync-flagged
		Done().
		MustBuild()
	c, p, _ := runProgram(t, prog, nil)
	st := c.Stats()
	if st.SyncEntries[isa.SyncAcquire] != 1 {
		t.Fatalf("acquire entries = %d, want 1", st.SyncEntries[isa.SyncAcquire])
	}
	if st.SyncCycles[isa.SyncAcquire] == 0 {
		t.Fatal("acquire cycles not recorded")
	}
	if p.syncOps != 1 {
		t.Fatalf("sync-flagged mem ops = %d, want 1", p.syncOps)
	}
}

func TestNestedSyncMarkers(t *testing.T) {
	// Barrier containing a lock acquire (the Splash-2 SR barrier shape).
	prog := isa.NewBuilder().
		SyncBegin(isa.SyncBarrier).
		Compute(10).
		SyncBegin(isa.SyncAcquire).
		Compute(20).
		SyncEnd(isa.SyncAcquire).
		SyncEnd(isa.SyncBarrier).
		Done().
		MustBuild()
	c, _, _ := runProgram(t, prog, nil)
	st := c.Stats()
	if st.SyncCycles[isa.SyncAcquire] < 20 {
		t.Fatalf("acquire cycles = %d, want >= 20", st.SyncCycles[isa.SyncAcquire])
	}
	if st.SyncCycles[isa.SyncBarrier] < st.SyncCycles[isa.SyncAcquire] {
		t.Fatal("outer barrier phase should include inner acquire time")
	}
}

func TestBackoffGrowth(t *testing.T) {
	// Four waits with limit 2, base 8 quarter-cycles: 2, 4, 8 (capped), 8.
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 0, p, Config{BackoffBase: 8, BackoffLimit: 2}, nil, nil)
	prog := isa.NewBuilder().
		BackoffWait().
		BackoffWait().
		BackoffWait().
		BackoffWait().
		Done().
		MustBuild()
	c.Run(prog, 0)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BackoffCycles; got != 2+4+8+8 {
		t.Fatalf("BackoffCycles = %d, want 22", got)
	}
}

func TestBackoffZeroLimitIsPureSpin(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 0, p, DefaultConfig(0), nil, nil)
	prog := isa.NewBuilder().BackoffWait().BackoffWait().Done().MustBuild()
	c.Run(prog, 0)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BackoffCycles; got != 0 {
		t.Fatalf("BackoffCycles = %d, want 0 for BackOff-0", got)
	}
}

func TestBackoffResetRestartsGrowth(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 0, p, Config{BackoffBase: 16, BackoffLimit: 10}, nil, nil)
	prog := isa.NewBuilder().
		BackoffWait(). // 4
		BackoffWait(). // 8
		BackoffReset().
		BackoffWait(). // 4 again
		Done().
		MustBuild()
	c.Run(prog, 0)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BackoffCycles; got != 4+8+4 {
		t.Fatalf("BackoffCycles = %d, want 16", got)
	}
}

func TestPrivateClassification(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	var sawPrivate, sawShared bool
	classify := func(a memtypes.Addr) bool { return a >= 0x1000 }
	c := New(k, 0, &classifyPort{p, &sawPrivate, &sawShared}, DefaultConfig(0), classify, nil)
	// The classifier is applied by the core, so wire it through.
	c.isPrivate = classify
	prog := isa.NewBuilder().
		Imm(isa.R1, 0x1000).
		Ld(isa.R2, isa.R1, 0). // private
		Imm(isa.R1, 0x100).
		Ld(isa.R2, isa.R1, 0). // shared
		Done().
		MustBuild()
	c.Run(prog, 0)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sawPrivate || !sawShared {
		t.Fatalf("private=%v shared=%v, want both true", sawPrivate, sawShared)
	}
}

type classifyPort struct {
	inner      *fakePort
	sawPrivate *bool
	sawShared  *bool
}

func (cp *classifyPort) Access(req *memtypes.Request, done memtypes.Completer) {
	if req.Private {
		*cp.sawPrivate = true
	} else {
		*cp.sawShared = true
	}
	cp.inner.Access(req, done)
}

func TestOnDoneCallback(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	finished := 0
	c := New(k, 5, p, DefaultConfig(0), nil, func(c *Core) { finished++ })
	c.Run(isa.NewBuilder().Done().MustBuild(), 0)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if finished != 1 {
		t.Fatalf("onDone ran %d times, want 1", finished)
	}
}

func TestDoubleRunPanics(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 0, p, DefaultConfig(0), nil, nil)
	prog := isa.NewBuilder().Done().MustBuild()
	c.Run(prog, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double Run did not panic")
		}
	}()
	c.Run(prog, 0)
}

func TestTwoCoresInterleave(t *testing.T) {
	// A minimal cross-core flag handoff through the fake port: core 1
	// spins with ld_through until core 0 stores the flag.
	k := sim.New()
	p := newFakePort(k, 2)
	writer := New(k, 0, p, DefaultConfig(0), nil, nil)
	reader := New(k, 1, p, DefaultConfig(0), nil, nil)

	writer.Run(isa.NewBuilder().
		Compute(100).
		Imm(isa.R1, 0x80).
		Imm(isa.R2, 1).
		StThrough(isa.R1, 0, isa.R2).
		Done().
		MustBuild(), 0)

	reader.Run(isa.NewBuilder().
		Imm(isa.R1, 0x80).
		Label("spin").
		LdThrough(isa.R2, isa.R1, 0).
		Beqz(isa.R2, "spin").
		Done().
		MustBuild(), 0)

	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !writer.Done() || !reader.Done() {
		t.Fatal("cores did not finish")
	}
	if reader.Stats().DoneAt < 100 {
		t.Fatalf("reader finished at %d, before the flag write at >=100", reader.Stats().DoneAt)
	}
}

func TestAccessors(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 7, p, DefaultConfig(0), nil, nil)
	if c.ID() != 7 {
		t.Fatalf("ID = %d", c.ID())
	}
	c.SetReg(isa.R3, 99)
	if c.Reg(isa.R3) != 99 {
		t.Fatal("SetReg lost")
	}
	if c.CurrentInstr() != nil {
		t.Fatal("no program loaded: CurrentInstr should be nil")
	}
	prog := isa.NewBuilder().Compute(10).Done().MustBuild()
	c.Run(prog, 0)
	if c.PC() != 0 {
		t.Fatalf("PC = %d before start", c.PC())
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.CurrentInstr() != nil {
		t.Fatal("finished core should report nil instruction")
	}
}

func TestComputeRAndALUOps(t *testing.T) {
	prog := isa.NewBuilder().
		Imm(isa.R1, 120).
		ComputeR(isa.R1).
		Mov(isa.R2, isa.R1).
		Sub(isa.R3, isa.R1, isa.R2). // 0
		Xori(isa.R4, isa.R3, 5).     // 5
		Nop().
		Beq(isa.R1, isa.R2, "eq").
		Imm(isa.R5, 111). // skipped
		Label("eq").
		Bne(isa.R1, isa.R3, "ne").
		Imm(isa.R5, 222). // skipped
		Label("ne").
		Done().
		MustBuild()
	c, _, _ := runProgram(t, prog, nil)
	if c.Stats().ComputeCycles != 120 {
		t.Fatalf("ComputeCycles = %d", c.Stats().ComputeCycles)
	}
	if c.Reg(isa.R4) != 5 || c.Reg(isa.R5) != 0 {
		t.Fatalf("ALU/branch results wrong: r4=%d r5=%d", c.Reg(isa.R4), c.Reg(isa.R5))
	}
}

func TestMaxBatchYields(t *testing.T) {
	// A long pure-ALU stretch must yield to the kernel without losing
	// cycles: 3 ALU ops per iteration x 3000 iterations > maxBatch.
	b := isa.NewBuilder()
	b.Imm(isa.R1, 3000)
	b.Label("loop")
	b.Addi(isa.R2, isa.R2, 1)
	b.Addi(isa.R1, isa.R1, ^uint64(0))
	b.Bnez(isa.R1, "loop")
	b.Done()
	c, _, _ := runProgram(t, b.MustBuild(), nil)
	if c.Reg(isa.R2) != 3000 {
		t.Fatalf("R2 = %d, want 3000", c.Reg(isa.R2))
	}
	if c.Stats().Instructions < 9000 {
		t.Fatalf("instructions = %d", c.Stats().Instructions)
	}
}

func TestSyncEndWithoutBeginPanics(t *testing.T) {
	k := sim.New()
	p := newFakePort(k, 1)
	c := New(k, 0, p, DefaultConfig(0), nil, nil)
	c.Run(isa.NewBuilder().SyncEnd(isa.SyncAcquire).Done().MustBuild(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced SyncEnd did not panic")
		}
	}()
	_ = k.Run(0)
}

func TestMemStallAccounting(t *testing.T) {
	// A port with latency above the gate threshold accrues stall time;
	// one below it does not.
	for _, tc := range []struct {
		latency   uint64
		wantStall bool
	}{{IdleGateThreshold + 10, true}, {2, false}} {
		k := sim.New()
		p := newFakePort(k, tc.latency)
		c := New(k, 0, p, DefaultConfig(0), nil, nil)
		c.Run(isa.NewBuilder().
			Imm(isa.R1, 0x40).
			Ld(isa.R2, isa.R1, 0).
			Done().MustBuild(), 0)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		got := c.Stats().MemStallCycles > 0
		if got != tc.wantStall {
			t.Fatalf("latency %d: stall recorded = %v, want %v", tc.latency, got, tc.wantStall)
		}
	}
}
