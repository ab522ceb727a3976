// Package mesi implements the invalidation-based, directory-based MESI
// protocol the paper uses as its conventional baseline (Section 5.2,
// "Invalidation").
//
// Each LLC bank hosts the directory slice for the lines it owns: a full
// sharers bit-vector plus an owner pointer. The directory is the
// serialization point — it blocks per line while a transaction is in
// flight and defers later requests, the standard discipline that keeps
// the protocol race-free. Writes collect invalidation acknowledgements at
// the directory before data is granted, so communicating a value to a
// spinning reader costs the five messages the paper counts: {write(GetX),
// invalidation, acknowledgement, load(GetS), data}.
//
// Atomics acquire M state and execute locally in the L1, which is what
// makes contended test&set locks ping-pong lines under invalidation.
// Racy operations and fences degenerate to their plain equivalents: MESI
// needs no self-invalidation and spins efficiently on local S copies.
package mesi

import (
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message kinds.
const (
	// MsgGetS requests read permission (L1 -> dir, control).
	MsgGetS = memtypes.MsgKind(memtypes.KindMESIBase) + iota
	// MsgGetX requests write permission (L1 -> dir, control).
	MsgGetX
	// MsgPutM writes back an evicted modified line (L1 -> dir, line).
	MsgPutM
	// MsgPutE returns an evicted clean-exclusive line (L1 -> dir, control).
	MsgPutE
	// MsgInv invalidates a sharer (dir -> L1, control).
	MsgInv
	// MsgInvAck acknowledges an invalidation (L1 -> dir, control).
	MsgInvAck
	// MsgFwdGetS forwards a read to the owner (dir -> L1, control).
	MsgFwdGetS
	// MsgFwdGetX forwards a write to the owner (dir -> L1, control).
	MsgFwdGetX
	// MsgDataWB carries the owner's line back to the directory in
	// response to a forward (L1 -> dir, line).
	MsgDataWB
	// MsgDataS grants a shared copy (dir -> L1, line).
	MsgDataS
	// MsgDataE grants a clean-exclusive copy (dir -> L1, line).
	MsgDataE
	// MsgDataX grants an exclusive copy for writing, sent only after
	// all invalidation acks arrived (dir -> L1, line).
	MsgDataX
	// MsgWBAck acknowledges a writeback (dir -> L1, control).
	MsgWBAck
)

// Tile bundles one node's L1 and directory bank and demultiplexes
// network messages between them.
type Tile struct {
	L1  *L1
	Dir *Dir
}

// NewTile builds node id's L1 and directory bank. monitor turns on the
// L1's MONITOR/MWAIT handling of OpReadCB (see monitor.go); e, when
// non-nil, jitters the bank's access latencies.
func NewTile(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store,
	bankOf func(memtypes.Addr) memtypes.NodeID, monitor bool, e *chaos.Engine) *Tile {
	return &Tile{
		L1:  newL1(k, id, mesh, store, bankOf, monitor),
		Dir: newDir(k, id, mesh, store, e),
	}
}

// Deliver implements noc.Handler.
func (t *Tile) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS, MsgGetX, MsgPutM, MsgPutE, MsgInvAck, MsgDataWB:
		t.Dir.Deliver(msg)
	default:
		t.L1.Deliver(msg)
	}
}

// Port returns the L1, the port the node's core issues into.
func (t *Tile) Port() memtypes.Port { return t.L1 }

// SetObserver installs the event hook on both controllers (nil
// disables): monitor arm/wake and the stall legs of in-flight misses.
func (t *Tile) SetObserver(fn trace.Hook) { t.L1.obs, t.Dir.obs = fn, fn }

// Stats returns the tile's counters.
func (t *Tile) Stats() mem.TileStats {
	s := t.Dir.data.TileStats()
	s.L1Accesses, s.L1Hits = t.L1.stats.Accesses, t.L1.stats.Hits
	s.MonitorArms, s.MonitorWakeups = t.L1.monStats.Arms, t.L1.monStats.Wakeups
	return s
}

// Parked, ParkedOp and CheckInvariants report that nothing parks at a
// MESI tile: the directory blocks per line and defers, and there is no
// callback directory whose bits could lose a wakeup.
func (t *Tile) Parked() int                                    { return 0 }
func (t *Tile) ParkedOp(memtypes.NodeID) (memtypes.Addr, bool) { return 0, false }
func (t *Tile) CheckInvariants(bool) error                     { return nil }
