package memtypes

import "repro/internal/digest"

// Digest folds the message's wire-visible fields. Two in-flight messages
// with equal digests are indistinguishable to any receiver, which is the
// property the replay bisector needs when it compares parked or queued
// messages between two runs. The pool linkage (next pointer, debug
// guard) is deliberately excluded: it is allocator bookkeeping, not
// protocol state.
func (m *Message) Digest(h *digest.Hash) {
	h.Int(int(m.Src))
	h.Int(int(m.Dst))
	h.Int(int(m.Kind))
	h.Int(int(m.Class))
	h.U64(uint64(m.Addr))
	h.Int(int(m.Core))
	h.U64(m.Value)
	for _, w := range m.LineData {
		h.U64(w)
	}
	for _, b := range m.Mask {
		h.Bool(b)
	}
	h.Int(m.Words)
	h.Bool(m.Stale)
}

// Digest folds the request's architecturally meaningful fields (for
// hashing a pending L1 operation mid-run). The completion target is the
// caller's business, and Seq is only a matching tag; the request payload
// determines what the memory system will do with it.
func (r *Request) Digest(h *digest.Hash) {
	h.Int(int(r.Kind))
	h.U64(uint64(r.Addr))
	h.Int(int(r.Core))
	h.U64(r.Value)
	h.Int(int(r.RMW))
	h.Bool(r.RMWLdCB)
	h.Int(int(r.RMWSt))
	h.U64(r.Expect)
	h.U64(r.Arg)
	h.Bool(r.Private)
	h.Bool(r.Sync)
	h.Int(int(r.SyncKind))
}
