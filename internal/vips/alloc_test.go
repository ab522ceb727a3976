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
	c.Run(isa.NewBuilder().
		Imm(isa.R1, 0x100). // homed at bank 0, one hop away
		Label("spin").
		LdThrough(isa.R2, isa.R1, 0).
		Beqz(isa.R2, "spin").
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
