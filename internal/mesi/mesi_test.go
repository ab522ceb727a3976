package mesi

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
)

type rig struct {
	k     *sim.Kernel
	mesh  *noc.Mesh
	store *mem.Store
	tiles []*Tile
}

func newRig(t testing.TB, nodes int) *rig {
	t.Helper()
	k := sim.New()
	w := 1
	for w*w < nodes {
		w++
	}
	if w*w != nodes {
		t.Fatalf("nodes %d is not a square", nodes)
	}
	mesh := noc.New(k, w, w, nil, false)
	store := mem.NewStore()
	bankOf := func(a memtypes.Addr) memtypes.NodeID {
		return memtypes.NodeID(uint64(a.Line()) / memtypes.LineBytes % uint64(nodes))
	}
	r := &rig{k: k, mesh: mesh, store: store}
	for n := 0; n < nodes; n++ {
		id := memtypes.NodeID(n)
		tile := NewTile(k, id, mesh, store, bankOf, false, nil)
		mesh.Attach(id, tile)
		r.tiles = append(r.tiles, tile)
	}
	return r
}

func (r *rig) access(t testing.TB, n int, req *memtypes.Request) memtypes.Response {
	t.Helper()
	var resp memtypes.Response
	got := false
	req.Core = memtypes.NodeID(n)
	r.tiles[n].L1.Access(req, memtypes.CompleterFunc(func(rp memtypes.Response) { resp = rp; got = true }))
	if err := r.k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Fatal("request did not complete")
	}
	return resp
}

func (r *rig) start(n int, req *memtypes.Request, done func(memtypes.Response)) {
	req.Core = memtypes.NodeID(n)
	r.tiles[n].L1.Access(req, memtypes.CompleterFunc(done))
}

func TestColdReadGrantsE(t *testing.T) {
	r := newRig(t, 4)
	resp := r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	if resp.Value != 0 {
		t.Fatalf("cold read = %d, want 0", resp.Value)
	}
	if st, ok := r.tiles[0].L1.LineState(0x100); !ok || st != StateE {
		t.Fatalf("state = %v/%v, want E (exclusive clean)", st, ok)
	}
}

func TestSecondReaderSharesAndDowngrades(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	s0, _ := r.tiles[0].L1.LineState(0x100)
	s1, _ := r.tiles[1].L1.LineState(0x100)
	if s0 != StateS || s1 != StateS {
		t.Fatalf("states = %v/%v, want S/S after owner downgrade", s0, s1)
	}
	dir := r.tiles[memtypes.NodeID(0x100/64%4)].Dir
	if sh, owner := dir.Sharers(0x100); sh != 2 || owner != -1 {
		t.Fatalf("dir sharers=%d owner=%d, want 2/-1", sh, owner)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	mesh0 := r.mesh.Stats().Messages
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x100, Value: 9})
	if r.mesh.Stats().Messages != mesh0 {
		t.Fatal("E->M upgrade should be silent (no messages)")
	}
	if st, _ := r.tiles[0].L1.LineState(0x100); st != StateM {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100})
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x100, Value: 5})
	if _, ok := r.tiles[0].L1.LineState(0x100); ok {
		t.Fatal("core 0's copy should be invalidated")
	}
	if _, ok := r.tiles[1].L1.LineState(0x100); ok {
		t.Fatal("core 1's copy should be invalidated")
	}
	if st, _ := r.tiles[2].L1.LineState(0x100); st != StateM {
		t.Fatal("writer should hold M")
	}
	if r.tiles[0].L1.Stats().Invalidations != 1 {
		t.Fatal("invalidation not counted")
	}
	// The new value is visible to a subsequent reader.
	if resp := r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x100}); resp.Value != 5 {
		t.Fatalf("read after invalidation = %d, want 5", resp.Value)
	}
}

func TestSpinnerSeesStaleUntilInvalidated(t *testing.T) {
	// The MESI spin idiom: a reader's S copy returns the old value on
	// local hits; only the writer's invalidation exposes the new value.
	r := newRig(t, 4)
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200})
	// Local hit: still 0.
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200})
	if !resp.Hit || resp.Value != 0 {
		t.Fatalf("spin hit = %+v, want local 0", resp)
	}
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x200, Value: 1})
	// The copy was invalidated: next read misses and sees 1.
	resp = r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x200})
	if resp.Hit || resp.Value != 1 {
		t.Fatalf("post-invalidation read = %+v, want miss with 1", resp)
	}
}

func TestOwnerForwardOnRead(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x300, Value: 7})
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x300})
	if resp.Value != 7 {
		t.Fatalf("forwarded read = %d, want 7", resp.Value)
	}
	if st, _ := r.tiles[0].L1.LineState(0x300); st != StateS {
		t.Fatal("owner should downgrade to S")
	}
	if r.tiles[0].L1.Stats().Forwards != 1 {
		t.Fatal("forward not served")
	}
}

func TestOwnerForwardOnWrite(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x300, Value: 7})
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x300, Value: 8})
	if _, ok := r.tiles[0].L1.LineState(0x300); ok {
		t.Fatal("old owner should be invalidated by FwdGetX")
	}
	if resp := r.access(t, 2, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x300}); resp.Value != 8 {
		t.Fatalf("read = %d, want 8", resp.Value)
	}
}

func TestRMWAcquiresM(t *testing.T) {
	r := newRig(t, 4)
	resp := r.access(t, 0, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: 0x400,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
	})
	if resp.Value != 0 {
		t.Fatal("t&s on free lock should return 0")
	}
	if st, _ := r.tiles[0].L1.LineState(0x400); st != StateM {
		t.Fatal("RMW should leave the line in M")
	}
	// A second t&s from another core sees it taken.
	resp = r.access(t, 1, &memtypes.Request{
		Kind: memtypes.OpRMW, Addr: 0x400,
		RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
	})
	if resp.Value != 1 {
		t.Fatalf("second t&s = %d, want 1 (taken)", resp.Value)
	}
}

func TestConcurrentTASExactlyOneWins(t *testing.T) {
	r := newRig(t, 4)
	wins := 0
	n := 0
	for _, c := range []int{0, 1, 2, 3} {
		r.start(c, &memtypes.Request{
			Kind: memtypes.OpRMW, Addr: 0x500,
			RMW: memtypes.RMWTestAndSet, Expect: 0, Arg: 1,
		}, func(rp memtypes.Response) {
			n++
			if rp.Value == 0 {
				wins++
			}
		})
	}
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != 4 || wins != 1 {
		t.Fatalf("n=%d wins=%d, want 4/1", n, wins)
	}
}

func TestRacyOpsMapToPlain(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWriteThrough, Addr: 0x600, Value: 4})
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadThrough, Addr: 0x600})
	if resp.Value != 4 {
		t.Fatalf("mapped racy ops broken: %d", resp.Value)
	}
	// Fences are no-ops.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfInvl})
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpFenceSelfDown})
}

func TestFiveMessageValueCommunication(t *testing.T) {
	// Section 2.1: communicating a new value to one waiting reader
	// under invalidation costs five messages: GetX, Inv, InvAck (the
	// write side, with the writer already having issued its request)
	// plus GetS and Data on the reader side. Our directory-collected
	// variant adds the DataX grant: count the write+read sequence.
	r := newRig(t, 4)
	// Address 0x700 lives on bank 0; use cores 1 and 2 so every
	// protocol message crosses the network (local hops are free).
	// Both cores share the line first (reader spins on an S copy;
	// writer holds S too).
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x700})
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x700})
	before := r.mesh.Stats().Messages
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x700, Value: 1}) // GetX, Inv, InvAck, DataX
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x700})            // GetS, Fwd, DataWB, DataS
	got := r.mesh.Stats().Messages - before
	// 4 for the upgrade-with-one-sharer + 4 for the forwarded read.
	if got != 8 {
		t.Fatalf("messages = %d, want 8 (dir-collected MESI variant)", got)
	}
}

func TestEvictionWriteback(t *testing.T) {
	r := newRig(t, 1)
	stride := uint64(128 * 64) // same-set stride for 32KB 4-way
	for i := uint64(0); i < 5; i++ {
		r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: memtypes.Addr(i * stride), Value: i + 1})
	}
	if r.tiles[0].L1.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", r.tiles[0].L1.Stats().Writebacks)
	}
	// The evicted line's data is preserved and re-readable.
	if resp := r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0}); resp.Value != 1 {
		t.Fatalf("post-writeback read = %d, want 1", resp.Value)
	}
}

func TestManySharersInvalidationStorm(t *testing.T) {
	r := newRig(t, 16)
	for c := 0; c < 16; c++ {
		r.access(t, c, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x800})
	}
	dir := r.tiles[memtypes.NodeID(0x800/64%16)].Dir
	if sh, _ := dir.Sharers(0x800); sh != 16 {
		t.Fatalf("sharers = %d, want 16", sh)
	}
	r.access(t, 3, &memtypes.Request{Kind: memtypes.OpWrite, Addr: 0x800, Value: 1})
	if dir.Stats().InvsSent != 15 {
		t.Fatalf("invalidations = %d, want 15", dir.Stats().InvsSent)
	}
	for c := 0; c < 16; c++ {
		if c == 3 {
			continue
		}
		if _, ok := r.tiles[c].L1.LineState(0x800); ok {
			t.Fatalf("core %d copy survived the storm", c)
		}
	}
}

func TestSyncAttributionReachesLLC(t *testing.T) {
	r := newRig(t, 4)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpRead, Addr: 0x900, Sync: true, SyncKind: 3})
	dir := r.tiles[memtypes.NodeID(0x900/64%4)].Dir
	if dir.data.Stats().SyncAccesses != 1 {
		t.Fatalf("sync LLC accesses = %d, want 1", dir.data.Stats().SyncAccesses)
	}
	if dir.data.Stats().SyncByKind[3] != 1 {
		t.Fatalf("per-kind sync accesses = %v", dir.data.Stats().SyncByKind)
	}
}
