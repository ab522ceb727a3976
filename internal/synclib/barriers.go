package synclib

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// SRBarrier is the sense-reversing centralized barrier of Figures 14/15.
// When Lock is non-nil, the counter is decremented under that lock (the
// Splash-2 POSIX style used in the paper's evaluation, Section 5.2);
// otherwise a single fetch&decrement atomic is used as in the figures.
type SRBarrier struct {
	C memtypes.Addr // arrival counter
	S memtypes.Addr // global sense
	N int

	Lock Lock
}

// NewSRBarrier allocates the barrier for n threads, optionally with a
// lock-protected counter.
func NewSRBarrier(l *Layout, n int, lock Lock) *SRBarrier {
	bar := &SRBarrier{C: l.SharedLine(), S: l.SharedLine(), N: n, Lock: lock}
	l.Init[bar.C] = uint64(n)
	return bar
}

// EmitInit initializes the local sense register.
func (s *SRBarrier) EmitInit(b *isa.Builder, f Flavor, tid int) {
	b.Imm(RegSense, 0)
	if s.Lock != nil {
		s.Lock.EmitInit(b, f, tid)
	}
}

// EmitWait emits one barrier episode.
func (s *SRBarrier) EmitWait(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncBarrier)
	// not $s, $s : flip the local sense.
	b.Xori(RegSense, RegSense, 1)
	if f.SelfInvalidating() {
		// Writes before the barrier must be visible after it.
		b.SelfDown()
	}
	spin := b.NewLabel()
	if s.Lock != nil {
		// Splash-2 style: lock; c = --C; if c == 0 { C = N }; unlock;
		// winner flips S, others spin. RegSave survives the embedded
		// acquire/release emissions.
		s.Lock.EmitAcquire(b, f, tid)
		b.Imm(RegAddr, uint64(s.C))
		b.Ld(RegSave, RegAddr, 0)
		b.Addi(RegSave, RegSave, ^uint64(0)) // C-1
		b.St(RegAddr, 0, RegSave)
		notLast := b.NewLabel()
		b.Bnez(RegSave, notLast)
		b.Imm(RegTmp, uint64(s.N))
		b.St(RegAddr, 0, RegTmp) // reset C under the lock
		b.Bind(notLast)
		s.Lock.EmitRelease(b, f, tid)
		b.Bnez(RegSave, spin)
		// Winner: flip the global sense (broadcast).
		emitBroadcastStore(b, f, s.S, RegSense)
	} else {
		// Figure 14/15: f&d $c, C; the winner (c == 1) resets C and
		// flips S. The atomic's store half is st_cbA ("Fetch&Add in a
		// barrier", Table 1).
		b.Imm(RegAddr, uint64(s.C))
		b.RMW(RegTmp2, RegAddr, 0, isa.RMWSpec{
			Op: memtypes.RMWFetchAdd, St: memtypes.CBAll,
			ArgImm: ^uint64(0), // -1
		})
		b.Bnei(RegTmp2, 1, spin)
		b.Imm(RegTmp, uint64(s.N))
		emitBroadcastStore(b, f, s.C, RegTmp)
		emitBroadcastStore(b, f, s.S, RegSense)
	}
	b.Bind(spin)
	// spn: wait until S == $s. The winner's store satisfies its own
	// guard read immediately (Figures 14/15 fall into the spin).
	emitSpinAddr(b, f, s.S, RegTmp, exitWhenEq(RegSense))
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncBarrier)
}

// Tree node field offsets: two arrival flags (one per child) and the
// wakeup sense word, each its own word within the node's line.
const (
	treeChild0 = 0
	treeChild1 = 8
	treeSense  = 16
)

// TreeBarrier is the scalable tree sense-reversing barrier of Figures
// 16/17: a binary arrival tree (children signal parents by clearing
// child-not-ready flags) and a binary wakeup tree (parents release
// children by writing their sense word). No atomics; exactly one writer
// per spin variable, so callback-all and callback-one behave identically
// (Section 3.4.5).
type TreeBarrier struct {
	N     int
	nodes []memtypes.Addr // per-thread node line
}

// NewTreeBarrier allocates the tree for n threads.
func NewTreeBarrier(l *Layout, n int) *TreeBarrier {
	t := &TreeBarrier{N: n}
	for i := 0; i < n; i++ {
		t.nodes = append(t.nodes, l.SharedLine())
	}
	// Arm the child-not-ready flags for the first episode.
	for i := 0; i < n; i++ {
		if 2*i+1 < n {
			l.Init[t.nodes[i]+treeChild0] = 1
		}
		if 2*i+2 < n {
			l.Init[t.nodes[i]+treeChild1] = 1
		}
	}
	return t
}

// children returns how many children thread tid has in the binary
// tree: they are threads 2*tid+1 and, when there are two, 2*tid+2.
func (t *TreeBarrier) children(tid int) int {
	return min(max(t.N-(2*tid+1), 0), 2)
}

// EmitInit initializes the local sense register.
func (t *TreeBarrier) EmitInit(b *isa.Builder, f Flavor, tid int) {
	if tid < 0 || tid >= t.N {
		panic(fmt.Sprintf("synclib: tree barrier tid %d out of range", tid))
	}
	b.Imm(RegSense, 0)
}

// EmitWait emits one barrier episode for thread tid.
func (t *TreeBarrier) EmitWait(b *isa.Builder, f Flavor, tid int) {
	b.SyncBegin(isa.SyncBarrier)
	b.Xori(RegSense, RegSense, 1)
	if f.SelfInvalidating() {
		b.SelfDown()
	}

	// Arrival: wait for each child, then re-arm its flag.
	for i := range t.children(tid) {
		off := int64(treeChild0)
		if i == 1 {
			off = treeChild1
		}
		flag := t.nodes[tid] + memtypes.Addr(off)
		emitSpinAddr(b, f, flag, RegTmp, exitWhenZero)
		b.Imm(RegTmp2, 1)
		emitBroadcastStore(b, f, flag, RegTmp2) // re-arm for next episode
	}

	if tid != 0 {
		// Signal the parent: clear my flag in its node.
		parent := (tid - 1) / 2
		off := int64(treeChild0)
		if (tid-1)%2 == 1 {
			off = treeChild1
		}
		b.Imm(RegTmp2, 0)
		emitBroadcastStore(b, f, t.nodes[parent]+memtypes.Addr(off), RegTmp2)
		// Wait for the wakeup: my sense word flips to the local sense.
		emitSpinAddr(b, f, t.nodes[tid]+treeSense, RegTmp, exitWhenEq(RegSense))
	}

	// Wakeup: release the children.
	for i := range t.children(tid) {
		emitBroadcastStore(b, f, t.nodes[2*tid+1+i]+treeSense, RegSense)
	}
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncBarrier)
}

// SignalWait is the semaphore-style signal/wait of Figures 18/19: signal
// increments a counter with fetch&increment; wait spins for a non-zero
// counter and claims a unit with test&decrement.
type SignalWait struct {
	C memtypes.Addr
}

// NewSignalWait allocates the counter.
func NewSignalWait(l *Layout) *SignalWait {
	return &SignalWait{C: l.SharedLine()}
}

// EmitSignal emits a signal: f&i C. Under callback-one the increment's
// store services exactly one waiter ({ld}&{st_cb1}, Table 1); under
// callback-all it wakes everyone.
func (s *SignalWait) EmitSignal(b *isa.Builder, f Flavor) {
	b.SyncBegin(isa.SyncSignal)
	if f.SelfInvalidating() {
		b.SelfDown()
	}
	st := memtypes.CBAll
	if f == FlavorCBOne {
		st = memtypes.CBOne
	}
	b.Imm(RegAddr, uint64(s.C))
	b.RMW(RegTmp, RegAddr, 0, isa.RMWSpec{
		Op: memtypes.RMWFetchAdd, St: st, ArgImm: 1,
	})
	b.SyncEnd(isa.SyncSignal)
}

// EmitWait emits a wait: spin until C != 0, then t&d; on failure (another
// waiter claimed the unit) resume spinning, re-entering at the blocking
// load as in Figures 18/19.
func (s *SignalWait) EmitWait(b *isa.Builder, f Flavor) {
	b.SyncBegin(isa.SyncWait)
	tad := b.NewLabel()
	b.Imm(RegAddr, uint64(s.C))
	switch f {
	case FlavorMESI:
		spn := b.NewLabel()
		b.Bind(spn)
		b.Ld(RegTmp, RegAddr, 0)
		b.Beqz(RegTmp, spn)
		b.Bind(tad)
		b.TestDec(RegTmp, RegAddr, 0, memtypes.CBAll)
		b.Beqz(RegTmp, spn)
	case FlavorBackoff:
		spn := b.NewLabel()
		b.BackoffReset()
		b.Bind(spn)
		b.LdThrough(RegTmp, RegAddr, 0)
		b.Bnez(RegTmp, tad)
		b.BackoffWait()
		b.Jmp(spn)
		b.Bind(tad)
		b.TestDec(RegTmp, RegAddr, 0, memtypes.CBAll)
		b.Beqz(RegTmp, spn)
	case FlavorCBAll, FlavorCBOne:
		// Figure 19: try (guard), spn (ld_cb), tad ({ld}&{st_cb0}).
		spn := b.NewLabel()
		b.LdThrough(RegTmp, RegAddr, 0)
		b.Bnez(RegTmp, tad)
		b.Bind(spn)
		b.LdCB(RegTmp, RegAddr, 0)
		b.Beqz(RegTmp, spn)
		b.Bind(tad)
		b.TestDec(RegTmp, RegAddr, 0, memtypes.CBZero)
		b.Beqz(RegTmp, spn)
	}
	if f.SelfInvalidating() {
		b.SelfInvl()
	}
	b.SyncEnd(isa.SyncWait)
}
