package mesi

import (
	"sort"

	"repro/internal/digest"

	"repro/internal/memtypes"
)

// This file folds the MESI tile's mutable state into a replay digest.
// Transient mid-transaction state is represented as data: a pending L1
// miss hashes its request payload, a busy directory line its ack count
// and deferred-queue depth. Scheduled kernel events are not hashed, but
// they are pure functions of the hashed request/line state in a
// deterministic run, so digest equality still implies behavioral
// equality at the compared boundary.

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
	lineAddrs := sortedAddrs(len(d.lines), func(f func(memtypes.Addr)) {
		for a := range d.lines { //cbvet:unordered — keys are sorted before hashing
			f(a)
		}
	})
	h.Int(len(lineAddrs))
	for _, a := range lineAddrs {
		ln := d.lines[a]
		h.U64(uint64(a))
		h.Int(ln.owner)
		h.U64(ln.sharers)
	}

	busyAddrs := sortedAddrs(len(d.busy), func(f func(memtypes.Addr)) {
		for a := range d.busy { //cbvet:unordered — keys are sorted before hashing
			f(a)
		}
	})
	h.Int(len(busyAddrs))
	for _, a := range busyAddrs {
		h.U64(uint64(a))
		h.Int(d.busy[a].acksPending)
	}

	defAddrs := sortedAddrs(len(d.deferq), func(f func(memtypes.Addr)) {
		for a := range d.deferq { //cbvet:unordered — keys are sorted before hashing
			f(a)
		}
	})
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

// sortedAddrs collects addresses from a map-range callback and returns
// them ascending, giving every digest map walk one canonical order.
func sortedAddrs(n int, each func(func(memtypes.Addr))) []memtypes.Addr {
	addrs := make([]memtypes.Addr, 0, n)
	each(func(a memtypes.Addr) { addrs = append(addrs, a) })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
