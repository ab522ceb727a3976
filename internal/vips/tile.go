package vips

import (
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tile bundles one node's L1 and LLC bank controller and demultiplexes
// network messages between them.
type Tile struct {
	L1   *L1
	Bank *Bank
}

// NewTile builds node id's L1 and bank controller. cores sizes the
// callback directory; cfg.Mode selects back-off, callback or queue-lock
// handling of spin-waiting; e, when non-nil, injects faults at the bank.
func NewTile(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, cores int,
	bankOf func(memtypes.Addr) memtypes.NodeID, cfg Config, e *chaos.Engine) *Tile {
	return &Tile{
		L1:   newL1(k, id, mesh, bankOf),
		Bank: newBank(k, id, mesh, store, cores, cfg, e),
	}
}

// Deliver implements noc.Handler.
func (t *Tile) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine, MsgWTLine, MsgRacy:
		t.Bank.Deliver(msg)
	default:
		t.L1.Deliver(msg)
	}
}

// Port returns the L1, the port the node's core issues into.
func (t *Tile) Port() memtypes.Port { return t.L1 }

// SetObserver installs the event hook on both controllers (nil
// disables): callback-directory activity and the stall legs of in-flight
// operations.
func (t *Tile) SetObserver(fn trace.Hook) { t.L1.obs, t.Bank.obs = fn, fn }

// Stats returns the tile's counters.
func (t *Tile) Stats() mem.TileStats {
	s := t.Bank.data.TileStats()
	s.L1Accesses, s.L1Hits = t.L1.stats.Accesses, t.L1.stats.Hits
	b := t.Bank.stats
	s.CBDirAccesses, s.CBWakes, s.CBStaleWakes = b.CBDirAccesses, b.Wakes, b.StaleWakes
	if dir := t.Bank.cbdir; dir != nil {
		ds := dir.Stats()
		s.CBEvictions, s.CBInstalls = ds.Evictions, ds.Installs
	}
	return s
}

// Parked reports how many operations are blocked in the bank's callback
// directory.
func (t *Tile) Parked() int { return t.Bank.parkedOps() }
