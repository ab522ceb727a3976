package vips

import (
	"slices"
	"sort"

	"repro/internal/digest"

	"repro/internal/memtypes"
)

// This file folds the VIPS tile's mutable state into a replay digest.
// As in the MESI digest, transient state is represented by the data that
// determines it: a pending L1 operation hashes its request and phase
// flags, a parked callback read hashes the full blocked message, deferred
// work hashes its queue depth. Scheduled events are not hashed; they are
// pure functions of this state in a deterministic run.

// Digest folds the L1's state, then the bank's.
func (t *Tile) Digest(h *digest.Hash) {
	t.L1.Digest(h)
	t.Bank.Digest(h)
}

// Digest folds the L1's cache array (dirty masks, private bits), any
// pending operation, the outstanding write-through count, and the
// counters.
func (l *L1) Digest(h *digest.Hash) {
	l.arr.Digest(h, func(h *digest.Hash, s *l1Line) {
		for _, d := range s.dirty {
			h.Bool(d)
		}
		h.Bool(s.private)
	})
	h.Bool(l.pending.req != nil)
	if l.pending.req != nil {
		l.pending.req.Digest(h)
		h.Bool(l.pending.fence)
		h.Bool(l.pending.invlAfter)
	}
	h.Int(l.wtOutstanding)
	l.stats.Digest(h)
}

// Digest folds every L1Stats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *L1Stats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.Hits)
	h.U64(s.Misses)
	h.U64(s.WriteThroughs)
	h.U64(s.SelfInvls)
	h.U64(s.SelfDowns)
	h.U64(s.RacyOps)
}

// Digest folds the bank controller: the callback directory, queue-lock
// blocking bits and queued RMWs, the per-line MSHR locks and deferred
// queue depths, parked callback reads, the data bank, and the counters —
// all map-keyed state in ascending (address, core) order.
func (b *Bank) Digest(h *digest.Hash) {
	// Protocols without callbacks (BackOff, QueueLock) run banks with no
	// directory; presence is protocol-determined, so DigestCompatible
	// configs always agree on this branch.
	if b.cbdir != nil {
		b.cbdir.Digest(h)
	}

	qlAddrs := b.sortedQLAddrs()
	h.Int(len(qlAddrs))
	for _, a := range qlAddrs {
		st := b.queueLocks[a]
		h.U64(uint64(a))
		h.Bool(st.blocked)
		h.Int(len(st.queue))
		for _, q := range st.queue {
			q.msg.Digest(h)
		}
	}

	busyAddrs := digest.SortedKeys(b.busy)
	h.Int(len(busyAddrs))
	for _, a := range busyAddrs {
		h.U64(uint64(a))
	}

	defAddrs := digest.SortedKeys(b.deferq)
	h.Int(len(defAddrs))
	for _, a := range defAddrs {
		h.U64(uint64(a))
		h.Int(len(b.deferq[a]))
	}

	// Emptied sets kept for reuse (see Bank.parked) are not state.
	var parkAddrs []memtypes.Addr
	for a, m := range b.parked { //cbvet:unordered — keys are sorted before use
		if len(m) > 0 {
			parkAddrs = append(parkAddrs, a)
		}
	}
	slices.Sort(parkAddrs)
	h.Int(len(parkAddrs))
	for _, a := range parkAddrs {
		h.U64(uint64(a))
		for _, c := range digest.SortedKeys(b.parked[a]) {
			h.Int(int(c))
			b.parked[a][c].Digest(h)
		}
	}

	b.data.Digest(h)
	b.stats.Digest(h)
}

// Digest folds every BankCtrlStats field in declaration order (the
// struct's digest manifest, as for L1Stats above).
func (s *BankCtrlStats) Digest(h *digest.Hash) {
	h.U64(s.RacyReads)
	h.U64(s.RacyWrites)
	h.U64(s.RMWs)
	h.U64(s.CBDirAccesses)
	h.U64(s.Wakes)
	h.U64(s.StaleWakes)
	h.U64(s.Deferred)
	h.U64(s.QueuedRMWs)
	h.U64(s.QueueWakes)
}

// sortedQLAddrs returns the queue-lock map's keys ascending. Queue-lock
// entries persist after release (blocked=false, empty queue), so the
// digest includes them only when they hold live state — two banks that
// processed different lock histories but reached the same live state
// must digest equal.
func (b *Bank) sortedQLAddrs() []memtypes.Addr {
	addrs := make([]memtypes.Addr, 0, len(b.queueLocks))
	for a, st := range b.queueLocks { //cbvet:unordered — keys are sorted before hashing
		if st.blocked || len(st.queue) > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
