package mem

import "repro/internal/isa"

// TileStats is one tile's counters: its L1's, its LLC bank's, and its
// protocol extensions' (zero where the protocol lacks the mechanism).
// machine.Stats embeds it, summed over tiles.
type TileStats struct {
	// L1 activity (energy: the L1 is touched by every cached access).
	L1Accesses uint64
	L1Hits     uint64

	// LLC activity.
	LLCAccesses     uint64
	LLCDataAccesses uint64
	LLCSyncAccesses uint64 // accesses caused by synchronization ops
	LLCSyncByKind   [isa.NumSyncKinds]uint64
	LLCMisses       uint64 // memory accesses

	// Callback directory activity (callback protocol only).
	CBDirAccesses uint64
	CBWakes       uint64
	CBStaleWakes  uint64
	CBEvictions   uint64
	CBInstalls    uint64

	// Monitor (quiesce) extension activity.
	MonitorArms    uint64
	MonitorWakeups uint64
}

// Add accumulates o into s.
func (s *TileStats) Add(o TileStats) {
	s.L1Accesses += o.L1Accesses
	s.L1Hits += o.L1Hits
	s.LLCAccesses += o.LLCAccesses
	s.LLCDataAccesses += o.LLCDataAccesses
	s.LLCSyncAccesses += o.LLCSyncAccesses
	for k, n := range o.LLCSyncByKind {
		s.LLCSyncByKind[k] += n
	}
	s.LLCMisses += o.LLCMisses
	s.CBDirAccesses += o.CBDirAccesses
	s.CBWakes += o.CBWakes
	s.CBStaleWakes += o.CBStaleWakes
	s.CBEvictions += o.CBEvictions
	s.CBInstalls += o.CBInstalls
	s.MonitorArms += o.MonitorArms
	s.MonitorWakeups += o.MonitorWakeups
}

// TileStats returns the bank's counters as a tile's LLC counters.
func (b *Bank) TileStats() TileStats {
	s := TileStats{
		LLCAccesses:     b.stats.Accesses,
		LLCDataAccesses: b.stats.DataAccesses,
		LLCSyncAccesses: b.stats.SyncAccesses,
		LLCMisses:       b.stats.Misses,
	}
	copy(s.LLCSyncByKind[:], b.stats.SyncByKind[:])
	return s
}
