package mesi

import "repro/internal/digest"

// This file folds the MESI tile's mutable state into a replay digest.
// Transient mid-transaction state is represented as data: a pending L1
// miss hashes its request payload, a busy directory line its ack count
// and deferred-queue depth. Scheduled kernel events are not hashed, but
// they are pure functions of the hashed request/line state in a
// deterministic run, so digest equality still implies behavioral
// equality at the compared boundary.

// Digest folds the L1's state, then the directory's.
func (t *Tile) Digest(h *digest.Hash) {
	t.L1.Digest(h)
	t.Dir.Digest(h)
}

// Digest folds the L1's cache array (MESI line states), any pending
// miss, the monitor extension's armed state, and the counters.
func (l *L1) Digest(h *digest.Hash) {
	l.arr.Digest(h, func(h *digest.Hash, s *l1Line) {
		h.Int(int(s.state))
	})
	h.Bool(l.pending.req != nil)
	if l.pending.req != nil {
		l.pending.req.Digest(h)
	}
	h.Bool(l.monitor.armed)
	if l.monitor.armed {
		h.U64(uint64(l.monitor.addr))
	}
	l.monStats.Digest(h)
	l.stats.Digest(h)
}

// Digest folds every L1Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *L1Stats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.Hits)
	h.U64(s.Misses)
	h.U64(s.Upgrades)
	h.U64(s.Invalidations)
	h.U64(s.Writebacks)
	h.U64(s.Forwards)
}

// Digest folds every MonitorStats field in declaration order (the
// struct's digest manifest, as for L1Stats above).
func (s *MonitorStats) Digest(h *digest.Hash) {
	h.U64(s.Arms)
	h.U64(s.Wakeups)
	h.U64(s.Misfire)
}

// Digest folds the directory bank: sharer/owner tracking, in-flight
// transactions (ack counts), deferred-request queue depths, the data
// bank, and the counters — all map-keyed state in ascending address
// order.
func (d *Dir) Digest(h *digest.Hash) {
	lineAddrs := digest.SortedKeys(d.lines)
	h.Int(len(lineAddrs))
	for _, a := range lineAddrs {
		ln := d.lines[a]
		h.U64(uint64(a))
		h.Int(ln.owner)
		h.U64(ln.sharers)
	}

	busyAddrs := digest.SortedKeys(d.busy)
	h.Int(len(busyAddrs))
	for _, a := range busyAddrs {
		h.U64(uint64(a))
		h.Int(d.busy[a].acksPending)
	}

	defAddrs := digest.SortedKeys(d.deferq)
	h.Int(len(defAddrs))
	for _, a := range defAddrs {
		h.U64(uint64(a))
		h.Int(len(d.deferq[a]))
	}

	d.data.Digest(h)
	d.stats.Digest(h)
}

// Digest folds every DirStats field in declaration order (the struct's
// digest manifest, as for L1Stats above).
func (s *DirStats) Digest(h *digest.Hash) {
	h.U64(s.GetS)
	h.U64(s.GetX)
	h.U64(s.InvsSent)
	h.U64(s.Forwards)
	h.U64(s.Writebacks)
	h.U64(s.Deferred)
	h.U64(s.EGrants)
}
