package mem

import "repro/internal/digest"

// Digest folds the authoritative word store in ascending address order.
// StoreWord deletes zero-valued words, so the map's contents are already
// canonical: two stores holding the same values digest equal regardless
// of write history.
func (s *Store) Digest(h *digest.Hash) {
	addrs := digest.SortedKeys(s.words)
	h.Int(len(addrs))
	for _, a := range addrs {
		h.U64(uint64(a))
		h.U64(s.words[a])
	}
}

// Digest folds the bank's residency array and counters. The latency
// parameters are configuration, not state, and are excluded.
func (b *Bank) Digest(h *digest.Hash) {
	b.arr.Digest(h, nil)
	b.stats.Digest(h)
}

// Digest folds every BankStats field in declaration order. This is the
// struct's digest manifest: a new counter must be folded here too, or
// replay verification goes blind to it.
func (s *BankStats) Digest(h *digest.Hash) {
	h.U64(s.Accesses)
	h.U64(s.DataAccesses)
	h.U64(s.SyncAccesses)
	h.U64(s.Misses)
	h.U64(s.MemCycles)
	for _, v := range s.SyncByKind {
		h.U64(v)
	}
}
