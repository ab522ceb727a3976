package mesi

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memtypes"
)

// TestL1HitSpinAllocFree pins the inner loop of every Invalidation cell,
// a core spinning on an L1-resident line, at zero allocations per memory
// operation: the core issues from its request slot, the L1 answers
// through its response event, and the core resumes as an actor event.
func TestL1HitSpinAllocFree(t *testing.T) {
	r := newRig(t, 4)
	l1 := r.tiles[1].L1
	c := cpu.New(r.k, 1, l1, cpu.DefaultConfig(0), nil, nil)
	b := isa.NewBuilder()
	spin := b.NewLabel()
	c.Run(b.
		Imm(isa.R1, 0x100).
		Bind(spin).
		Ld(isa.R2, isa.R1, 0).
		Beqz(isa.R2, spin).
		Done().
		MustBuild(), 0)
	// Warm up: the first load misses and fills the line; the rest hit.
	for i := 0; i < 1000; i++ {
		r.k.Step()
	}
	ops, misses := c.Stats().MemOps, l1.Stats().Misses
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			r.k.Step()
		}
	})
	ops = c.Stats().MemOps - ops
	if ops == 0 || l1.Stats().Misses != misses {
		t.Fatalf("measured %d memory ops with %d new misses, want L1 hits only",
			ops, l1.Stats().Misses-misses)
	}
	if allocs != 0 {
		t.Fatalf("L1-hit spin: %v allocs per 100 events (%d memory ops in all), want 0", allocs, ops)
	}
}

// TestStaleDataPanics checks that a grant is matched to the pending miss
// by operation sequence number, not only by line: a core reuses its
// Request, so a grant left over from an earlier operation on the same
// line must still be caught.
func TestStaleDataPanics(t *testing.T) {
	r := newRig(t, 4)
	req := &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100, Seq: 2}
	r.start(1, req, func(memtypes.Response) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a grant for an earlier operation was accepted")
		}
	}()
	r.tiles[1].L1.Deliver(&memtypes.Message{
		Src: 0, Dst: 1, Kind: MsgDataS, Class: memtypes.ClassLineData,
		Addr: req.Addr.Line(), Core: 1, Seq: 1,
	})
}

// TestDeferredQueueAllocFree pins the directory's contended-line queue at
// zero allocations: three cores store to one line in a loop, so the line
// ping-pongs between them and their GetX requests keep queueing behind
// its in-flight transaction. Emptied queues are reused, not reallocated.
func TestDeferredQueueAllocFree(t *testing.T) {
	r := newRig(t, 4)
	for id := 1; id <= 3; id++ {
		b := isa.NewBuilder()
		loop := b.NewLabel()
		b.Imm(isa.R1, 0x100) // homed at directory 0
		b.Bind(loop)
		b.Addi(isa.R2, isa.R2, 1)
		b.St(isa.R1, 0, isa.R2)
		b.Jmp(loop)
		cpu.New(r.k, memtypes.NodeID(id), r.tiles[id].L1, cpu.DefaultConfig(0), nil, nil).Run(b.MustBuild(), 0)
	}
	dir := r.tiles[0].Dir
	for i := 0; i < 20_000; i++ {
		r.k.Step()
	}
	deferred := dir.Stats().Deferred
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			r.k.Step()
		}
	})
	if deferred = dir.Stats().Deferred - deferred; deferred < 100 {
		t.Fatalf("measured %d deferred requests, want the contended line to queue requests", deferred)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per 500 events (%d requests deferred), want 0", allocs, deferred)
	}
}
