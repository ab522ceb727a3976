package synclib

import (
	"repro/internal/isa"
	"repro/internal/memtypes"
)

// TASLock is the simple Test&Set spin lock of Figures 8 and 9.
type TASLock struct {
	L memtypes.Addr

	// ForceCB1Write makes the acquire RMW's store half a st_cb1
	// instead of the paper's st_cb0 optimization — the Figure 5 vs
	// Figure 6 ablation: a successful acquire then prematurely wakes a
	// waiter whose retry is doomed.
	ForceCB1Write bool
}

// NewTASLock allocates the lock variable (one line).
func NewTASLock(l *Layout) *TASLock {
	return &TASLock{L: l.SharedLine()}
}

// EmitInit implements Lock (no per-thread state).
func (t *TASLock) EmitInit(*isa.Builder, Flavor, int) {}

// EmitAcquire emits the T&S acquire loop.
func (t *TASLock) EmitAcquire(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncAcquire)
	b.Imm(RegAddr, uint64(t.L))
	switch f {
	case FlavorMESI:
		// acq: t&s $r, L, 0, 1 ; bnez $r, acq
		acq := b.NewLabel()
		b.Bind(acq)
		b.TAS(RegTmp, RegAddr, 0, false, memtypes.CBAll)
		b.Bnez(RegTmp, acq)
	case FlavorBackoff:
		// Repeated atomics spin on the LLC: back off between attempts.
		acq := b.NewLabel()
		cs := b.NewLabel()
		b.BackoffReset()
		b.Bind(acq)
		b.TAS(RegTmp, RegAddr, 0, false, memtypes.CBAll)
		b.Beqz(RegTmp, cs)
		b.BackoffWait()
		b.Jmp(acq)
		b.Bind(cs)
		b.SelfInvl()
	case FlavorCBAll, FlavorCBOne:
		// Figure 9: a non-callback T&S guard, then a callback T&S
		// spin loop ({ld_cb}&{st_cb0/st_cbA}).
		st := tasStore(f)
		if t.ForceCB1Write && f == FlavorCBOne {
			st = memtypes.CBOne
		}
		cs := b.NewLabel()
		spn := b.NewLabel()
		b.TAS(RegTmp, RegAddr, 0, false, st)
		b.Beqz(RegTmp, cs)
		b.Bind(spn)
		b.TAS(RegTmp, RegAddr, 0, true, st)
		b.Bnez(RegTmp, spn)
		b.Bind(cs)
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncAcquire)
}

// EmitRelease emits the lock release.
func (t *TASLock) EmitRelease(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncRelease)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	b.Imm(RegTmp, 0)
	emitReleaseStore(b, f, t.L, RegTmp)
	b.SyncEnd(isa.SyncRelease)
}

// TTASLock is the Test-and-Test&Set lock of Figures 10 and 11.
type TTASLock struct {
	L memtypes.Addr

	// ForceCB1Write replaces the st_cb0 store half of the acquire RMW
	// with st_cb1 (the Figure 5 vs Figure 6 ablation).
	ForceCB1Write bool
}

// NewTTASLock allocates the lock variable.
func NewTTASLock(l *Layout) *TTASLock {
	return &TTASLock{L: l.SharedLine()}
}

// EmitInit implements Lock (no per-thread state).
func (t *TTASLock) EmitInit(*isa.Builder, Flavor, int) {}

// EmitAcquire emits the T&T&S acquire: spin reading until free, then t&s.
func (t *TTASLock) EmitAcquire(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncAcquire)
	switch f {
	case FlavorMESI:
		// acq: ld $r, L ; bnez $r, acq ; t&s ; bnez $r, acq
		acq := b.NewLabel()
		b.Bind(acq)
		b.Imm(RegAddr, uint64(t.L))
		b.Ld(RegTmp, RegAddr, 0)
		b.Bnez(RegTmp, acq)
		b.TAS(RegTmp, RegAddr, 0, false, memtypes.CBAll)
		b.Bnez(RegTmp, acq)
	case FlavorBackoff:
		// Figure 10 (right) with exponential back-off on the racy
		// first Test.
		acq := b.NewLabel()
		tas := b.NewLabel()
		cs := b.NewLabel()
		b.Imm(RegAddr, uint64(t.L))
		b.BackoffReset()
		b.Bind(acq)
		b.LdThrough(RegTmp, RegAddr, 0)
		b.Beqz(RegTmp, tas)
		b.BackoffWait()
		b.Jmp(acq)
		b.Bind(tas)
		b.TAS(RegTmp, RegAddr, 0, false, memtypes.CBAll)
		b.Bnez(RegTmp, acq)
		b.Bind(cs)
		b.SelfInvl()
	case FlavorCBAll, FlavorCBOne:
		// Figure 11: guard ld_through, ld_cb spin, non-callback T&S
		// ({ld}&{st_cbA} for callback-all, {ld}&{st_cb0} for
		// callback-one).
		st := tasStore(f)
		if t.ForceCB1Write && f == FlavorCBOne {
			st = memtypes.CBOne
		}
		spn := b.NewLabel()
		tas := b.NewLabel()
		cs := b.NewLabel()
		b.Imm(RegAddr, uint64(t.L))
		b.LdThrough(RegTmp, RegAddr, 0)
		b.Beqz(RegTmp, tas)
		b.Bind(spn)
		b.LdCB(RegTmp, RegAddr, 0)
		b.Bnez(RegTmp, spn)
		b.Bind(tas)
		b.TAS(RegTmp, RegAddr, 0, false, st)
		b.Bnez(RegTmp, spn)
		b.Bind(cs)
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncAcquire)
}

// EmitRelease emits the lock release (st for MESI, st_through for
// backoff/callback-all, st_cb1 for callback-one).
func (t *TTASLock) EmitRelease(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncRelease)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	b.Imm(RegTmp, 0)
	emitReleaseStore(b, f, t.L, RegTmp)
	b.SyncEnd(isa.SyncRelease)
}

// CLH node field offsets (each field is a word in the node's line).
const (
	clhSuccWait = 0 // succ_wait: successor must wait
	clhPrev     = 8 // prev: predecessor node, stashed by acquire
)

// CLHLock is the CLH queue lock of Figures 12 and 13: threads enqueue
// with an unconditional fetch&store and spin on their predecessor's
// succ_wait flag, so exactly one thread spins per variable.
type CLHLock struct {
	L memtypes.Addr // tail pointer

	// nodes[tid] is thread tid's initial queue node; ivars[tid] is the
	// thread-private word holding I (the current node pointer, which
	// migrates between threads as nodes are recycled).
	nodes []memtypes.Addr
	ivars []memtypes.Addr
}

// NewCLHLock allocates the lock for n threads: a tail pointer
// (initialized to a dummy released node), one node per thread, and the
// private I variables.
func NewCLHLock(l *Layout, n int) *CLHLock {
	c := &CLHLock{L: l.SharedLine()}
	// CLH threads spin on their predecessor's node through a pointer
	// obtained from the tail swap: the generated programs use indirect
	// addressing, which static verification must be told to admit.
	l.NoteIndirect()
	dummy := l.SharedLine() // succ_wait = 0: lock free
	l.Init[c.L] = uint64(dummy)
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, l.SharedLine())
		c.ivars = append(c.ivars, l.PrivateLine())
		l.Init[c.ivars[i]] = uint64(c.nodes[i])
	}
	return c
}

// EmitInit loads the thread's I variable (already initialized in the
// layout); nothing to emit.
func (c *CLHLock) EmitInit(b *isa.Builder, f Flavor, tid int) {}

// EmitAcquire emits the CLH acquire of Figures 12/13:
//
//	st   $i->succ_wait, 1
//	f&s  $p, L, $i
//	st   $i->prev, $p
//	spin until $p->succ_wait == 0
func (c *CLHLock) EmitAcquire(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncAcquire)
	// Load I (thread-private).
	b.Imm(RegAddr, uint64(c.ivars[tid]))
	b.Ld(RegI, RegAddr, 0)
	// $i->succ_wait = 1 (racy store: the successor reads it racily).
	b.Imm(RegTmp2, 1)
	if f.SelfInvalidating() {
		b.StThrough(RegI, clhSuccWait, RegTmp2)
	} else {
		b.St(RegI, clhSuccWait, RegTmp2)
	}
	// f&s $p, L, $i.
	b.Imm(RegAddr, uint64(c.L))
	b.FetchStore(RegP, RegAddr, 0, RegI, memtypes.CBAll)
	// Stash prev for the release ("ld $p, $i->prev" in Figure 12).
	if f.SelfInvalidating() {
		b.StThrough(RegI, clhPrev, RegP)
	} else {
		b.St(RegI, clhPrev, RegP)
	}
	// Spin on the predecessor's succ_wait.
	emitSpinReg(b, f, RegP, clhSuccWait, RegTmp, exitWhenZero)
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncAcquire)
}

// EmitRelease emits the CLH release: clear my node's succ_wait (waking
// the successor) and recycle the predecessor's node as mine.
func (c *CLHLock) EmitRelease(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncRelease)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	// Reload I and prev.
	b.Imm(RegAddr, uint64(c.ivars[tid]))
	b.Ld(RegI, RegAddr, 0)
	b.Ld(RegTmp2, RegI, clhPrev)
	// st $i->succ_wait, 0 : the lock hand-off. Exactly one thread
	// (the successor) spins on this word, so callback-all and
	// callback-one behave identically (Section 3.4.3).
	b.Imm(RegTmp, 0)
	switch f {
	case FlavorMESI:
		b.St(RegI, clhSuccWait, RegTmp)
	case FlavorBackoff, FlavorCBAll:
		b.StThrough(RegI, clhSuccWait, RegTmp)
	case FlavorCBOne:
		b.StCB1(RegI, clhSuccWait, RegTmp)
	}
	// I = $p (recycle the predecessor's node).
	b.Imm(RegAddr, uint64(c.ivars[tid]))
	b.St(RegAddr, 0, RegTmp2)
	b.SyncEnd(isa.SyncRelease)
}
