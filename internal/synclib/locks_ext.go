package synclib

import (
	"repro/internal/isa"
	"repro/internal/memtypes"
)

// This file extends the paper's lock set with two more algorithms from
// the same scalable-synchronization literature it draws on
// (Mellor-Crummey & Scott): the ticket lock and the MCS queue lock. They
// exercise the callback mechanism in ways the paper's three locks do not:
//
//   - The ticket lock spins comparing against a per-thread ticket, so a
//     release MUST wake every waiter (only the right ticket holder can
//     proceed, but the directory cannot know which waiter that is). Its
//     release therefore uses st_through even under the callback-one
//     flavour — the "safe way is callback-all" rule of Section 3.4.6.
//   - The ticket lock's two words (next-ticket, now-serving) share one
//     cache line, exercising the directory's word-granular tags.
//   - The MCS lock needs compare&swap and a transient spin in the
//     release path (waiting for a racing enqueuer to link itself).

// Ticket-lock word offsets within one shared line.
const (
	ticketNext    = 0 // fetch&increment ticket dispenser
	ticketServing = 8 // now-serving counter
)

// TicketLock is a FIFO spin lock: acquire takes a ticket with
// fetch&increment and spins until now-serving reaches it; release
// increments now-serving.
type TicketLock struct {
	L memtypes.Addr // line holding both words
}

// NewTicketLock allocates the lock (one line, two words).
func NewTicketLock(l *Layout) *TicketLock {
	return &TicketLock{L: l.SharedLine()}
}

// EmitInit implements Lock (no per-thread state).
func (t *TicketLock) EmitInit(*isa.Builder, Flavor, int) {}

// EmitAcquire takes a ticket and spins. The ticket is kept in RegP across
// the critical section (release needs it).
func (t *TicketLock) EmitAcquire(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncAcquire)
	// my = f&i(next). The dispenser is not a spin variable: plain
	// atomic with st_cbA semantics (wakes nobody; no entry exists).
	b.Imm(RegAddr, uint64(t.L))
	b.RMW(RegP, RegAddr, 0+ticketNext, isa.RMWSpec{
		Op: memtypes.RMWFetchAdd, St: memtypes.CBAll, ArgImm: 1,
	})
	// Spin until serving == my ticket.
	emitSpinReg(b, f, RegAddr, ticketServing, RegTmp, exitWhenEq(RegP))
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncAcquire)
}

// EmitRelease increments now-serving. Every waiter compares against its
// own ticket, so the wake must be a broadcast: st_through even under the
// callback-one flavour (waking a single arbitrary waiter could pick the
// wrong ticket holder, which would re-block with no further write coming
// — a deadlock).
func (t *TicketLock) EmitRelease(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncRelease)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	// serving = my + 1. The owner's ticket is still in RegP.
	b.Addi(RegTmp, RegP, 1)
	b.Imm(RegAddr, uint64(t.L))
	if f.SelfInvalidating() {
		b.StThrough(RegAddr, ticketServing, RegTmp)
	} else {
		b.St(RegAddr, ticketServing, RegTmp)
	}
	b.SyncEnd(isa.SyncRelease)
}

// MCS node field offsets (words within the node's line).
const (
	mcsNext   = 0 // successor node pointer (0 = none)
	mcsLocked = 8 // successor-must-wait flag
)

// MCSLock is the MCS queue lock: threads enqueue their own node with a
// swap on the tail and spin locally on their node's locked flag; release
// hands off through the next pointer, using compare&swap to resolve the
// race with a concurrent enqueuer.
type MCSLock struct {
	L     memtypes.Addr // tail pointer (0 = free)
	nodes []memtypes.Addr
}

// NewMCSLock allocates the lock for n threads.
func NewMCSLock(l *Layout, n int) *MCSLock {
	m := &MCSLock{L: l.SharedLine()}
	for i := 0; i < n; i++ {
		m.nodes = append(m.nodes, l.SharedLine())
	}
	return m
}

// EmitInit implements Lock (nodes are selected by tid at emit time).
func (m *MCSLock) EmitInit(*isa.Builder, Flavor, int) {}

// racyStore emits a store that must be immediately visible (st for MESI,
// st_through otherwise).
func racyStore(b *isa.Builder, f Flavor, base isa.Reg, off int64, rs isa.Reg) {
	if f.SelfInvalidating() {
		b.StThrough(base, off, rs)
	} else {
		b.St(base, off, rs)
	}
}

// EmitAcquire enqueues and spins on the own node's locked flag. RegI
// holds my node across the critical section.
func (m *MCSLock) EmitAcquire(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncAcquire)
	b.Imm(RegI, uint64(m.nodes[tid]))
	// node.next = 0 ; node.locked = 1.
	b.Imm(RegTmp, 0)
	racyStore(b, f, RegI, mcsNext, RegTmp)
	b.Imm(RegTmp, 1)
	racyStore(b, f, RegI, mcsLocked, RegTmp)
	// pred = swap(tail, node).
	b.Imm(RegAddr, uint64(m.L))
	b.FetchStore(RegP, RegAddr, 0, RegI, memtypes.CBAll)
	done := b.NewLabel()
	b.Beqz(RegP, done) // queue was empty: lock taken
	// pred.next = node, then spin on node.locked.
	racyStore(b, f, RegP, mcsNext, RegI)
	emitSpinReg(b, f, RegI, mcsLocked, RegTmp, exitWhenZero)
	b.Bind(done)
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncAcquire)
}

// EmitRelease hands the lock to the successor, resolving the enqueue race
// with compare&swap: if node.next is empty and CAS(tail, node, 0)
// succeeds, the lock is free; otherwise a racing enqueuer is about to
// link itself — a transient spin waits for the link, then the successor's
// locked flag is cleared (st_cb1 under callback-one: exactly one thread
// spins on it).
func (m *MCSLock) EmitRelease(b *isa.Builder, f Flavor, tid int) {
	node := uint64(m.nodes[tid])
	b.SyncBegin(isa.SyncRelease)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	b.Imm(RegI, node)
	handoff := b.NewLabel()
	out := b.NewLabel()
	// next = node.next (racy read: a concurrent enqueuer writes it).
	if f.SelfInvalidating() {
		b.LdThrough(RegSave, RegI, mcsNext)
	} else {
		b.Ld(RegSave, RegI, mcsNext)
	}
	b.Bnez(RegSave, handoff)
	// No known successor: CAS(tail, my node, 0). My node's address is
	// an emit-time constant, so it encodes as the CAS's immediate
	// expected value.
	b.Imm(RegAddr, uint64(m.L))
	b.RMW(RegTmp, RegAddr, 0, isa.RMWSpec{
		Op: memtypes.RMWCompareAndSwap, St: memtypes.CBAll,
		Expect: node, ArgImm: 0,
	})
	b.Beqi(RegTmp, node, out) // CAS won: the queue is empty, lock free
	// CAS lost: a racing enqueuer swapped itself in and is about to
	// link; transient spin until node.next is written.
	emitSpinReg(b, f, RegI, mcsNext, RegSave, exitWhenNonZero)
	b.Bind(handoff)
	// next.locked = 0: the hand-off. Exactly one thread spins on it, so
	// st_cb1 fits under callback-one.
	b.Imm(RegTmp, 0)
	switch f {
	case FlavorMESI:
		b.St(RegSave, mcsLocked, RegTmp)
	case FlavorBackoff, FlavorCBAll:
		b.StThrough(RegSave, mcsLocked, RegTmp)
	case FlavorCBOne:
		b.StCB1(RegSave, mcsLocked, RegTmp)
	}
	b.Bind(out)
	b.SyncEnd(isa.SyncRelease)
}
