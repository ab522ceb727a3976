package synclib

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

func TestTicketLockAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runLockTest(t, func(l *Layout, n int) Lock { return NewTicketLock(l) }, f)
		})
	}
}

func TestMCSLockAllFlavors(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			runLockTest(t, func(l *Layout, n int) Lock { return NewMCSLock(l, n) }, f)
		})
	}
}

// TestTicketLockIsFIFO: with staggered arrivals, grant order must follow
// ticket order under every flavour. Each thread appends its tid to a
// shared log inside the critical section; with arrival order forced by
// long staggering, the log must be sorted.
func TestTicketLockIsFIFO(t *testing.T) {
	for _, f := range allFlavors {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			const cores = 9
			lay := NewLayout()
			lock := NewTicketLock(lay)
			logBase := lay.SharedRange(cores * 64)
			idx := lay.SharedLine() // next log slot, protected by the lock
			m := machineFor(f, cores)
			applyInit(m, lay)
			for tid := 0; tid < cores; tid++ {
				b := isa.NewBuilder()
				mul, muldone := b.NewLabel(), b.NewLabel()
				lock.EmitInit(b, f, tid)
				b.Compute(uint64(1 + tid*3000)) // force arrival order 0..8
				lock.EmitAcquire(b, f, tid)
				b.Imm(isa.R2, uint64(idx))
				b.Ld(isa.R3, isa.R2, 0) // slot
				// log[slot] = tid+1
				b.Imm(isa.R4, uint64(logBase))
				b.Imm(isa.R5, 64)
				b.Imm(isa.R6, 0)
				b.Bind(mul) // R6 = slot*64 via repeated add
				b.Beqz(isa.R3, muldone)
				b.Add(isa.R6, isa.R6, isa.R5)
				b.Addi(isa.R3, isa.R3, ^uint64(0))
				b.Jmp(mul)
				b.Bind(muldone)
				b.Add(isa.R4, isa.R4, isa.R6)
				b.Imm(isa.R7, uint64(tid+1))
				b.St(isa.R4, 0, isa.R7)
				// idx++
				b.Ld(isa.R3, isa.R2, 0)
				b.Addi(isa.R3, isa.R3, 1)
				b.St(isa.R2, 0, isa.R3)
				lock.EmitRelease(b, f, tid)
				b.Done()
				m.Load(tid, b.MustBuild(), nil)
			}
			if err := m.Run(100_000_000); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			for i := 0; i < cores; i++ {
				got := m.Store.Load(memtypes.Addr(uint64(logBase) + uint64(i*64)))
				if got != uint64(i+1) {
					t.Fatalf("%v: grant order violated at slot %d: thread %d (FIFO expected)", f, i, got-1)
				}
			}
		})
	}
}

// TestTicketWordsShareALine documents that both ticket words live in one
// line, exercising the directory's word-granular tags under the callback
// flavours.
func TestTicketWordsShareALine(t *testing.T) {
	lay := NewLayout()
	lock := NewTicketLock(lay)
	next := lock.L + ticketNext
	serving := lock.L + ticketServing
	if next.Line() != serving.Line() {
		t.Fatal("ticket words should share a cache line")
	}
	if next.Word() == serving.Word() {
		t.Fatal("ticket words must be distinct words")
	}
}
