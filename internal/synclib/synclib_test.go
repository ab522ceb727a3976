package synclib

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
)

// machineFor builds the machine matching a flavour.
func machineFor(f Flavor, cores int) *machine.Machine {
	cfg := machine.Default(machine.ProtocolMESI)
	switch f {
	case FlavorMESI:
		cfg = machine.Default(machine.ProtocolMESI)
	case FlavorBackoff:
		cfg = machine.Default(machine.ProtocolBackoff)
		cfg.BackoffLimit = 10
	case FlavorCBAll, FlavorCBOne:
		cfg = machine.Default(machine.ProtocolCallback)
	}
	cfg.Cores = cores
	return machine.New(cfg, IsPrivate)
}

func applyInit(m *machine.Machine, l *Layout) {
	for a, v := range l.Init {
		m.Store.StoreWord(a, v)
	}
}

var allFlavors = []Flavor{FlavorMESI, FlavorBackoff, FlavorCBAll, FlavorCBOne}

// lockProgram builds one thread's lock-test program: iters times
// {acquire; counter++ (DRF); release}.
func lockProgram(lock Lock, f Flavor, tid int, counter memtypes.Addr, iters int) *isa.Program {
	b := isa.NewBuilder()
	loop := b.NewLabel()
	lock.EmitInit(b, f, tid)
	b.Imm(isa.R1, uint64(iters))
	b.Bind(loop)
	lock.EmitAcquire(b, f, tid)
	b.Imm(isa.R4, uint64(counter))
	b.Ld(isa.R5, isa.R4, 0)
	b.Addi(isa.R5, isa.R5, 1)
	b.St(isa.R4, 0, isa.R5)
	lock.EmitRelease(b, f, tid)
	b.Addi(isa.R1, isa.R1, ^uint64(0))
	b.Bnez(isa.R1, loop)
	b.Done()
	return b.MustBuild()
}

// runLockTest checks mutual exclusion + release/acquire visibility: the
// DRF counter must equal threads*iters at the end.
func runLockTest(t *testing.T, mkLock func(*Layout, int) Lock, f Flavor) {
	t.Helper()
	const cores, iters = 9, 12
	lay := NewLayout()
	lock := mkLock(lay, cores)
	counter := lay.SharedLine()
	m := machineFor(f, cores)
	applyInit(m, lay)
	for tid := 0; tid < cores; tid++ {
		m.Load(tid, lockProgram(lock, f, tid, counter, iters), nil)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	if got := m.Store.Load(counter); got != cores*iters {
		t.Fatalf("%v: counter = %d, want %d (mutual exclusion violated)", f, got, cores*iters)
	}
}

func TestTASLockAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runLockTest(t, func(l *Layout, n int) Lock { return NewTASLock(l) }, f)
		})
	}
}

func TestTTASLockAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runLockTest(t, func(l *Layout, n int) Lock { return NewTTASLock(l) }, f)
		})
	}
}

func TestCLHLockAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runLockTest(t, func(l *Layout, n int) Lock { return NewCLHLock(l, n) }, f)
		})
	}
}

// barrierProgram: each episode writes arr[tid] = e before the barrier and
// checks arr[(tid+1)%N] == e after it, accumulating the neighbour's value
// into R2.
func barrierProgram(bar Barrier, f Flavor, tid, n int, arr memtypes.Addr, episodes int) *isa.Program {
	b := isa.NewBuilder()
	loop := b.NewLabel()
	bar.EmitInit(b, f, tid)
	b.Imm(isa.R1, uint64(episodes))
	b.Imm(isa.R2, 0) // checksum
	b.Imm(isa.R3, 1) // episode number
	b.Bind(loop)
	b.Imm(isa.R4, uint64(arr)+uint64(tid)*memtypes.LineBytes)
	b.St(isa.R4, 0, isa.R3)
	bar.EmitWait(b, f, tid)
	b.Imm(isa.R4, uint64(arr)+uint64((tid+1)%n)*memtypes.LineBytes)
	b.Ld(isa.R5, isa.R4, 0)
	b.Add(isa.R2, isa.R2, isa.R5)
	// Second barrier: protects the read phase from the neighbour's
	// next-episode write.
	bar.EmitWait(b, f, tid)
	b.Addi(isa.R3, isa.R3, 1)
	b.Addi(isa.R1, isa.R1, ^uint64(0))
	b.Bnez(isa.R1, loop)
	b.Done()
	return b.MustBuild()
}

func runBarrierTest(t *testing.T, mkBar func(*Layout, int) Barrier, f Flavor) {
	t.Helper()
	const cores, episodes = 9, 8
	lay := NewLayout()
	bar := mkBar(lay, cores)
	arr := lay.SharedRange(cores * memtypes.LineBytes)
	m := machineFor(f, cores)
	applyInit(m, lay)
	for tid := 0; tid < cores; tid++ {
		m.Load(tid, barrierProgram(bar, f, tid, cores, arr, episodes), nil)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	want := uint64(episodes * (episodes + 1) / 2)
	for tid := 0; tid < cores; tid++ {
		if got := m.Cores[tid].Reg(isa.R2); got != want {
			t.Fatalf("%v: thread %d checksum = %d, want %d (barrier ordering violated)",
				f, tid, got, want)
		}
	}
}

func TestSRBarrierAtomicAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runBarrierTest(t, func(l *Layout, n int) Barrier { return NewSRBarrier(l, n, nil) }, f)
		})
	}
}

func TestSRBarrierWithLockAllFlavors(t *testing.T) {
	// The paper's evaluation variant: counter decremented under a
	// T&T&S lock (Splash-2 POSIX style).
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runBarrierTest(t, func(l *Layout, n int) Barrier {
				return NewSRBarrier(l, n, NewTTASLock(l))
			}, f)
		})
	}
}

func TestTreeBarrierAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runBarrierTest(t, func(l *Layout, n int) Barrier { return NewTreeBarrier(l, n) }, f)
		})
	}
}

func TestSignalWaitAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			// Core 0 produces signals; cores 1..3 each consume their
			// share.
			const waiters, perWaiter = 3, 5
			lay := NewLayout()
			sw := NewSignalWait(lay)
			m := machineFor(f, 4)
			applyInit(m, lay)

			pb := isa.NewBuilder()
			loop := pb.NewLabel()
			pb.Imm(isa.R1, waiters*perWaiter)
			pb.Bind(loop)
			pb.Compute(30)
			sw.EmitSignal(pb, f)
			pb.Addi(isa.R1, isa.R1, ^uint64(0))
			pb.Bnez(isa.R1, loop)
			pb.Done()
			m.Load(0, pb.MustBuild(), nil)

			for w := 1; w <= waiters; w++ {
				wb := isa.NewBuilder()
				loop := wb.NewLabel()
				wb.Imm(isa.R1, perWaiter)
				wb.Bind(loop)
				sw.EmitWait(wb, f)
				wb.Addi(isa.R1, isa.R1, ^uint64(0))
				wb.Bnez(isa.R1, loop)
				wb.Done()
				m.Load(w, wb.MustBuild(), nil)
			}
			if err := m.Run(50_000_000); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			if got := m.Store.Load(sw.C); got != 0 {
				t.Fatalf("%v: %d signals unconsumed", f, got)
			}
		})
	}
}

// TestFigure7ForwardProgress reproduces Figure 7: back-to-back spin loops
// consuming the same value. The guard ld_through preceding each ld_cb
// loop (Section 3.3) is what prevents the deadlock.
func TestFigure7ForwardProgress(t *testing.T) {
	for _, f := range []Flavor{FlavorCBAll, FlavorCBOne} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			lay := NewLayout()
			flag := lay.SharedLine()
			m := machineFor(f, 4)
			applyInit(m, lay)

			// Writer: flag = 1, once.
			wb := isa.NewBuilder()
			wb.Compute(200)
			wb.Imm(isa.R1, uint64(flag))
			wb.Imm(isa.R2, 1)
			wb.StThrough(isa.R1, 0, isa.R2)
			wb.Done()
			m.Load(0, wb.MustBuild(), nil)

			// Reader: while(flag==0); while(flag==0); — two spin loops
			// that both consume the same write.
			rb := isa.NewBuilder()
			emitSpinAddr(rb, f, flag, RegTmp, exitWhenNonZero)
			emitSpinAddr(rb, f, flag, RegTmp, exitWhenNonZero)
			rb.Done()
			m.Load(1, rb.MustBuild(), nil)

			if err := m.Run(10_000_000); err != nil {
				t.Fatalf("%v: deadlock: %v", f, err)
			}
		})
	}
}

// TestCallbackUsedUnderCallbackFlavors sanity-checks that the callback
// machinery is actually exercised (not silently degenerating to LLC
// spinning).
func TestCallbackUsedUnderCallbackFlavors(t *testing.T) {
	const cores, iters = 9, 10
	lay := NewLayout()
	lock := NewTTASLock(lay)
	counter := lay.SharedLine()
	m := machineFor(FlavorCBOne, cores)
	applyInit(m, lay)
	for tid := 0; tid < cores; tid++ {
		m.Load(tid, lockProgram(lock, FlavorCBOne, tid, counter, iters), nil)
	}
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.CBDirAccesses == 0 {
		t.Fatal("callback directory never consulted")
	}
	if st.CBWakes == 0 {
		t.Fatal("no callbacks were serviced: contention should block readers")
	}
}

// TestBackoffReducesLLCAccesses checks the Figure 1 trade-off at small
// scale: more exponentiations => fewer LLC accesses from spinning.
func TestBackoffReducesLLCAccesses(t *testing.T) {
	run := func(limit int) uint64 {
		const cores, iters = 9, 10
		lay := NewLayout()
		lock := NewTTASLock(lay)
		counter := lay.SharedLine()
		cfg := machine.Default(machine.ProtocolBackoff)
		cfg.Cores = cores
		cfg.BackoffLimit = limit
		m := machine.New(cfg, IsPrivate)
		applyInit(m, lay)
		for tid := 0; tid < cores; tid++ {
			m.Load(tid, lockProgram(lock, FlavorBackoff, tid, counter, iters), nil)
		}
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats().LLCSyncAccesses
	}
	noBackoff := run(0)
	backoff10 := run(10)
	if backoff10 >= noBackoff {
		t.Fatalf("BackOff-10 sync LLC accesses (%d) should be below BackOff-0 (%d)",
			backoff10, noBackoff)
	}
}

func TestFlavorStrings(t *testing.T) {
	for _, f := range allFlavors {
		if f.String() == "" {
			t.Fatal("empty flavour name")
		}
	}
	if fmt.Sprint(Flavor(99)) == "" {
		t.Fatal("unknown flavour should still print")
	}
}

// TestQuiesceProtocolRunsCallbackEncodings: the MONITOR/MWAIT extension
// machine executes the callback-all encodings; every construct must stay
// correct when ld_cb maps to a monitored load.
func TestQuiesceProtocolRunsCallbackEncodings(t *testing.T) {
	const cores, iters = 9, 10
	machineQ := func() *machine.Machine {
		cfg := machine.Default(machine.ProtocolQuiesce)
		cfg.Cores = cores
		return machine.New(cfg, IsPrivate)
	}

	// Mutual exclusion with each lock.
	for _, mk := range []func(*Layout) Lock{
		func(l *Layout) Lock { return NewTTASLock(l) },
		func(l *Layout) Lock { return NewCLHLock(l, cores) },
	} {
		lay := NewLayout()
		lock := mk(lay)
		counter := lay.SharedLine()
		m := machineQ()
		applyInit(m, lay)
		for tid := 0; tid < cores; tid++ {
			m.Load(tid, lockProgram(lock, FlavorCBAll, tid, counter, iters), nil)
		}
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		if got := m.Store.Load(counter); got != cores*iters {
			t.Fatalf("quiesce: counter = %d, want %d", got, cores*iters)
		}
		if m.Stats().MonitorArms == 0 {
			t.Fatal("quiesce machine never armed a monitor")
		}
	}

	// Barrier ordering.
	lay := NewLayout()
	bar := NewTreeBarrier(lay, cores)
	arr := lay.SharedRange(cores * memtypes.LineBytes)
	m := machineQ()
	applyInit(m, lay)
	for tid := 0; tid < cores; tid++ {
		m.Load(tid, barrierProgram(bar, FlavorCBAll, tid, cores, arr, 6), nil)
	}
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	want := uint64(6 * 7 / 2)
	for tid := 0; tid < cores; tid++ {
		if got := m.Cores[tid].Reg(isa.R2); got != want {
			t.Fatalf("quiesce barrier: thread %d checksum %d, want %d", tid, got, want)
		}
	}
}

// TestQueueLockProtocolMutualExclusion: the VIPS-M blocking-bit queue at
// the LLC (the lock mechanism the paper contrasts callbacks against) must
// preserve mutual exclusion with the plain T&S encoding — failing
// acquires block at the controller instead of spinning.
func TestQueueLockProtocolMutualExclusion(t *testing.T) {
	const cores, iters = 9, 10
	for _, mk := range []func(*Layout) Lock{
		func(l *Layout) Lock { return NewTASLock(l) },
		func(l *Layout) Lock { return NewTTASLock(l) },
	} {
		lay := NewLayout()
		lock := mk(lay)
		counter := lay.SharedLine()
		cfg := machine.Default(machine.ProtocolQueueLock)
		cfg.Cores = cores
		m := machine.New(cfg, IsPrivate)
		applyInit(m, lay)
		for tid := 0; tid < cores; tid++ {
			m.Load(tid, lockProgram(lock, FlavorBackoff, tid, counter, iters), nil)
		}
		if err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		if got := m.Store.Load(counter); got != cores*iters {
			t.Fatalf("queue-lock: counter = %d, want %d", got, cores*iters)
		}
	}
}
