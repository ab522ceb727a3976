// Package synclib encodes the synchronization algorithms of Section 3.4
// of the paper (Figures 8-19) as micro-op programs: the Test&Set and
// Test-and-Test&Set locks, the CLH queue lock, the sense-reversing and
// tree sense-reversing barriers, and signal/wait — each in four flavours:
//
//   - FlavorMESI: plain cached accesses, spinning locally on S copies
//     (left-hand columns of the figures).
//   - FlavorBackoff: VIPS-M with racy "_through" accesses, LLC spinning
//     with exponential back-off, and self-invalidation / self-downgrade
//     fences (right-hand columns).
//   - FlavorCBAll / FlavorCBOne: the callback encodings (Figures 9, 11,
//     13, 15, 17, 19), with guard ld_throughs preceding ld_cb spin loops
//     per the forward-progress rule of Section 3.3.
//
// Register conventions: synclib reserves R9-R15 as scratch/persistent
// registers (R12/R13 carry CLH's $p/$i across the critical section, R14
// holds barrier local sense). Workload code must not touch them.
package synclib

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// Flavor selects the protocol-specific encoding of each algorithm.
type Flavor uint8

const (
	// FlavorMESI matches the invalidation-based baseline.
	FlavorMESI Flavor = iota
	// FlavorBackoff matches VIPS-M with exponential back-off.
	FlavorBackoff
	// FlavorCBAll uses callback reads with callback-all writes.
	FlavorCBAll
	// FlavorCBOne uses callback reads with st_cb1/st_cb0 writes.
	FlavorCBOne
)

func (f Flavor) String() string {
	switch f {
	case FlavorMESI:
		return "mesi"
	case FlavorBackoff:
		return "backoff"
	case FlavorCBAll:
		return "cb-all"
	case FlavorCBOne:
		return "cb-one"
	}
	return fmt.Sprintf("Flavor(%d)", uint8(f))
}

// SelfInvalidating reports whether the flavour runs on a
// self-invalidation protocol (needs fences).
func (f Flavor) SelfInvalidating() bool { return f != FlavorMESI }

// Registers reserved by synclib (R9-R15).
const (
	RegSave  = isa.R9  // survives embedded acquire/release sequences
	RegTmp   = isa.R10 // general scratch ($r, $c)
	RegTmp2  = isa.R11 // second scratch
	RegP     = isa.R12 // CLH $p (predecessor), live across the CS
	RegI     = isa.R13 // CLH $i (my node), live across the CS
	RegSense = isa.R14 // barrier local sense $s, live for the program
	RegAddr  = isa.R15 // address formation scratch
)

// Address-space layout: shared synchronization variables and DRF data
// live below PrivateBase; thread-private data above it.
const (
	SharedBase  = memtypes.Addr(0x0010_0000)
	PrivateBase = memtypes.Addr(0x4000_0000)
)

// IsPrivate is the address classifier for machines running synclib
// programs.
func IsPrivate(a memtypes.Addr) bool { return a >= PrivateBase }

// Layout allocates simulated addresses for synchronization structures and
// workload data, and records their initial values.
type Layout struct {
	nextShared  memtypes.Addr
	nextPrivate memtypes.Addr
	// Init maps word addresses to their initial values; apply to the
	// machine's store before starting.
	Init map[memtypes.Addr]uint64
	// indirect records that some allocated structure is pointer-linked
	// (the CLH lock's queue nodes): programs using it chase pointers
	// loaded from memory, which a static verifier cannot resolve to
	// concrete addresses. See UsesIndirection.
	indirect bool
}

// NewLayout returns an empty layout.
func NewLayout() *Layout {
	return &Layout{
		nextShared:  SharedBase,
		nextPrivate: PrivateBase,
		Init:        make(map[memtypes.Addr]uint64),
	}
}

// SharedSpan reports the allocated shared region [base, end): every
// shared line and range handed out so far lies inside it. Chaos sweeps
// snapshot this span to compare final memory states across runs.
func (l *Layout) SharedSpan() (base, end memtypes.Addr) {
	return SharedBase, l.nextShared
}

// PrivateSpan reports the allocated private region [base, end).
func (l *Layout) PrivateSpan() (base, end memtypes.Addr) {
	return PrivateBase, l.nextPrivate
}

// NoteIndirect records that an allocated structure is pointer-linked,
// so programs built against this layout form some addresses by loading
// pointers from memory (the CLH lock). Static verification of such
// programs needs an explicit indirection allowance in the footprint.
func (l *Layout) NoteIndirect() { l.indirect = true }

// UsesIndirection reports whether any pointer-linked structure was
// allocated from this layout.
func (l *Layout) UsesIndirection() bool { return l.indirect }

// SharedLine allocates one shared cache line and returns its address.
// Synchronization variables get a line each (no false sharing), which
// also spreads them across LLC banks.
func (l *Layout) SharedLine() memtypes.Addr {
	a := l.nextShared
	l.nextShared += memtypes.LineBytes
	return a
}

// SharedRange allocates a line-aligned shared region of at least size
// bytes (workload data).
func (l *Layout) SharedRange(size int) memtypes.Addr {
	a := l.nextShared
	lines := (size + memtypes.LineBytes - 1) / memtypes.LineBytes
	l.nextShared += memtypes.Addr(lines * memtypes.LineBytes)
	return a
}

// PrivateLine allocates one private cache line.
func (l *Layout) PrivateLine() memtypes.Addr {
	a := l.nextPrivate
	l.nextPrivate += memtypes.LineBytes
	return a
}

// PrivateRange allocates a line-aligned private region.
func (l *Layout) PrivateRange(size int) memtypes.Addr {
	a := l.nextPrivate
	lines := (size + memtypes.LineBytes - 1) / memtypes.LineBytes
	l.nextPrivate += memtypes.Addr(lines * memtypes.LineBytes)
	return a
}

// Lock is the common interface of the three lock algorithms. tid is the
// calling thread's index (programs are generated per thread).
type Lock interface {
	// EmitInit emits per-thread setup (register/thread-local state).
	EmitInit(b *isa.Builder, f Flavor, tid int)
	// EmitAcquire emits the lock acquire, wrapped in SyncAcquire
	// markers.
	EmitAcquire(b *isa.Builder, f Flavor, tid int)
	// EmitRelease emits the lock release, wrapped in SyncRelease
	// markers.
	EmitRelease(b *isa.Builder, f Flavor, tid int)
}

// Barrier is the common interface of the two barrier algorithms.
type Barrier interface {
	EmitInit(b *isa.Builder, f Flavor, tid int)
	// EmitWait emits one barrier episode, wrapped in SyncBarrier
	// markers.
	EmitWait(b *isa.Builder, f Flavor, tid int)
}

// emitSpinReg emits the flavour-appropriate spin-exit sequence on the
// address regs[base]+off: repeat { load } until exitWhen branches out,
// leaving the final value in rd. For MESI the load is a plain cached ld
// (local spinning on an S copy); for Backoff it is a ld_through with
// exponential back-off; for the callback flavours it is a guard
// ld_through followed by a ld_cb loop (the forward-progress rule of
// Section 3.3).
func emitSpinReg(b *isa.Builder, f Flavor, base isa.Reg, off int64, rd isa.Reg,
	exitWhen func(b *isa.Builder, rd isa.Reg, exit isa.Label)) {
	exit := b.NewLabel()
	switch f {
	case FlavorMESI:
		top := b.NewLabel()
		b.Bind(top)
		b.Ld(rd, base, off)
		exitWhen(b, rd, exit)
		b.Jmp(top)
	case FlavorBackoff:
		top := b.NewLabel()
		b.BackoffReset()
		b.Bind(top)
		b.LdThrough(rd, base, off)
		exitWhen(b, rd, exit)
		b.BackoffWait()
		b.Jmp(top)
	case FlavorCBAll, FlavorCBOne:
		// Guard ld_through (non-blocking callback), then ld_cb loop.
		top := b.NewLabel()
		b.LdThrough(rd, base, off)
		exitWhen(b, rd, exit)
		b.Bind(top)
		b.LdCB(rd, base, off)
		exitWhen(b, rd, exit)
		b.Jmp(top)
	}
	b.Bind(exit)
}

// emitSpinAddr is emitSpinReg on an immediate address (clobbers RegAddr).
func emitSpinAddr(b *isa.Builder, f Flavor, addr memtypes.Addr, rd isa.Reg,
	exitWhen func(b *isa.Builder, rd isa.Reg, exit isa.Label)) {
	b.Imm(RegAddr, uint64(addr))
	emitSpinReg(b, f, RegAddr, 0, rd, exitWhen)
}

// exitWhenZero branches to exit when rd == 0.
func exitWhenZero(b *isa.Builder, rd isa.Reg, exit isa.Label) { b.Beqz(rd, exit) }

// exitWhenNonZero branches to exit when rd != 0.
func exitWhenNonZero(b *isa.Builder, rd isa.Reg, exit isa.Label) { b.Bnez(rd, exit) }

// exitWhenEq returns a predicate branching to exit when rd == reg.
func exitWhenEq(reg isa.Reg) func(*isa.Builder, isa.Reg, isa.Label) {
	return func(b *isa.Builder, rd isa.Reg, exit isa.Label) { b.Beq(rd, reg, exit) }
}

// storeKind returns the release-store semantics for a flavour: plain st
// for MESI, st_through for Backoff and CB-All, st_cb1 for CB-One.
func emitReleaseStore(b *isa.Builder, f Flavor, addr memtypes.Addr, rs isa.Reg) {
	b.Imm(RegAddr, uint64(addr))
	switch f {
	case FlavorMESI:
		b.St(RegAddr, 0, rs)
	case FlavorBackoff, FlavorCBAll:
		b.StThrough(RegAddr, 0, rs)
	case FlavorCBOne:
		b.StCB1(RegAddr, 0, rs)
	}
}

// emitBroadcastStore emits a store that must reach all waiters (barrier
// sense flips): plain st for MESI, st_through otherwise.
func emitBroadcastStore(b *isa.Builder, f Flavor, addr memtypes.Addr, rs isa.Reg) {
	b.Imm(RegAddr, uint64(addr))
	if f == FlavorMESI {
		b.St(RegAddr, 0, rs)
	} else {
		b.StThrough(RegAddr, 0, rs)
	}
}

// tasStore returns the store-half semantics of a lock-acquiring RMW:
// CB-One uses st_cb0 (Figure 6); CB-All uses st_cbA (Figure 9 left);
// Backoff/MESI use plain write-through semantics.
func tasStore(f Flavor) memtypes.CBWrite {
	if f == FlavorCBOne {
		return memtypes.CBZero
	}
	return memtypes.CBAll
}
