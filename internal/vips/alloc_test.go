package vips

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memtypes"
)

// TestRacyOpAllocFree pins a racy operation's full round trip at zero
// allocations per memory operation: core request slot, L1 forward, NoC,
// the bank's line lock and LLC access as actor events, the response
// back through the NoC, and the L1's response event.
func TestRacyOpAllocFree(t *testing.T) {
	r := newRig(t, 4, DefaultConfig(ModeCallback))
	c := cpu.New(r.k, 1, r.tiles[1].L1, cpu.DefaultConfig(0), nil, nil)
	b := isa.NewBuilder()
	spin := b.NewLabel()
	c.Run(b.
		Imm(isa.R1, 0x100). // homed at bank 0, one hop away
		Bind(spin).
		LdThrough(isa.R2, isa.R1, 0).
		Beqz(isa.R2, spin).
		Done().
		MustBuild(), 0)
	for i := 0; i < 1000; i++ {
		r.k.Step()
	}
	ops, racy := c.Stats().MemOps, r.tiles[0].Bank.Stats().RacyReads
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			r.k.Step()
		}
	})
	ops = c.Stats().MemOps - ops
	if racy = r.tiles[0].Bank.Stats().RacyReads - racy; ops == 0 || racy == 0 {
		t.Fatalf("measured %d memory ops and %d racy reads at the bank, want both > 0", ops, racy)
	}
	if allocs != 0 {
		t.Fatalf("racy op: %v allocs per 100 events (%d memory ops in all), want 0", allocs, ops)
	}
}

// TestStaleRacyResponsePanics checks that a racy response is matched to
// the pending operation by sequence number: a core reuses its Request,
// so a response that carries the same Request pointer but an earlier
// operation's number must still be caught.
func TestStaleRacyResponsePanics(t *testing.T) {
	r := newRig(t, 4, DefaultConfig(ModeCallback))
	req := &memtypes.Request{Kind: memtypes.OpReadThrough, Addr: 0x100, Seq: 2}
	r.start(1, req, func(memtypes.Response) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a response for an earlier operation was accepted")
		}
	}()
	r.tiles[1].L1.Deliver(&memtypes.Message{
		Src: 0, Dst: 1, Kind: MsgRacyResp, Class: memtypes.ClassWordData,
		Addr: req.Addr, Core: 1, Req: req, Seq: 1,
	})
}

// TestCallbackWakeAllocFree pins callback wakes at zero allocations:
// cores 1 and 2 park on a flag with ld_cb, and core 3 keeps writing it,
// so every write reaches the bank with parked waiters. A CB-All write
// (st_through) wakes both; a CB-One write (st_cb1) wakes one.
func TestCallbackWakeAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(b *isa.Builder)
		perWr uint64 // wakes each write should deliver once both cores park
	}{
		{"cb-all", func(b *isa.Builder) { b.StThrough(isa.R1, 0, isa.R2) }, 2},
		{"cb-one", func(b *isa.Builder) { b.StCB1(isa.R1, 0, isa.R2) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 4, DefaultConfig(ModeCallback))
			for id := 1; id <= 2; id++ {
				b := isa.NewBuilder()
				spin := b.NewLabel()
				b.Imm(isa.R1, 0x100) // homed at bank 0
				b.Bind(spin)
				b.LdCB(isa.R2, isa.R1, 0)
				b.Jmp(spin)
				cpu.New(r.k, memtypes.NodeID(id), r.tiles[id].L1, cpu.DefaultConfig(0), nil, nil).Run(b.MustBuild(), 0)
			}
			b := isa.NewBuilder()
			loop := b.NewLabel()
			b.Imm(isa.R1, 0x100)
			b.Bind(loop)
			b.Compute(400) // long enough for both readers to park again
			b.Addi(isa.R2, isa.R2, 1)
			tc.write(b)
			b.Jmp(loop)
			cpu.New(r.k, 3, r.tiles[3].L1, cpu.DefaultConfig(0), nil, nil).Run(b.MustBuild(), 0)

			// Warm up over many wheel rotations: a kernel wheel slot
			// grows once, the first time it holds more events than
			// its pre-grown capacity.
			bank := r.tiles[0].Bank
			for i := 0; i < 100_000; i++ {
				r.k.Step()
			}
			wakes, writes := bank.Stats().Wakes, bank.cbdir.Stats().Writes
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 500; i++ {
					r.k.Step()
				}
			})
			wakes, writes = bank.Stats().Wakes-wakes, bank.cbdir.Stats().Writes-writes
			if writes < 10 || wakes < tc.perWr*writes-tc.perWr {
				t.Fatalf("%d writes woke %d callbacks, want >= 10 writes waking %d each", writes, wakes, tc.perWr)
			}
			if allocs != 0 {
				t.Fatalf("%v allocs per 500 events (%d writes, %d wakes), want 0", allocs, writes, wakes)
			}
		})
	}
}

// TestDeferredQueueAllocFree pins the bank's line-lock queue at zero
// allocations: three cores write one word with st_through in a loop, so
// their writes keep queueing behind the line's holder. Emptied queues are
// reused, not reallocated.
func TestDeferredQueueAllocFree(t *testing.T) {
	r := newRig(t, 4, DefaultConfig(ModeBackoff))
	for id := 1; id <= 3; id++ {
		b := isa.NewBuilder()
		loop := b.NewLabel()
		b.Imm(isa.R1, 0x100) // homed at bank 0
		b.Bind(loop)
		b.Addi(isa.R2, isa.R2, 1)
		b.StThrough(isa.R1, 0, isa.R2)
		b.Jmp(loop)
		cpu.New(r.k, memtypes.NodeID(id), r.tiles[id].L1, cpu.DefaultConfig(0), nil, nil).Run(b.MustBuild(), 0)
	}
	bank := r.tiles[0].Bank
	for i := 0; i < 20_000; i++ {
		r.k.Step()
	}
	deferred := bank.Stats().Deferred
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			r.k.Step()
		}
	})
	if deferred = bank.Stats().Deferred - deferred; deferred < 100 {
		t.Fatalf("measured %d deferred operations, want the locked line to queue operations", deferred)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per 500 events (%d operations deferred), want 0", allocs, deferred)
	}
}
