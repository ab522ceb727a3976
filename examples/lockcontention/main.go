// Lock contention study: 16 cores hammer one lock; compare the naive
// Test-and-Test&Set lock against the scalable CLH queue lock under the
// invalidation baseline, LLC spinning with back-off, and callbacks —
// reproducing the lock half of the paper's Figure 20 at example scale.
//
// Run with: go run ./examples/lockcontention
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/synclib"
	"repro/internal/workload"
)

func run(mkLock func(*synclib.Layout, int) synclib.Lock, s experiments.Setup) machine.Stats {
	const cores, iters = 16, 8
	lay := synclib.NewLayout()
	lock := mkLock(lay, cores)
	counter := lay.SharedLine()
	f := s.Flavor()

	cfg := machine.Default(s.Protocol)
	cfg.Cores = cores
	cfg.BackoffLimit = s.BackoffLimit
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range lay.Init {
		m.Store.StoreWord(a, v)
	}
	for tid := 0; tid < cores; tid++ {
		b := isa.NewBuilder()
		loop := b.NewLabel()
		lock.EmitInit(b, f, tid)
		b.Imm(isa.R1, iters)
		b.Bind(loop)
		b.Compute(uint64(500 + 137*tid%900)) // staggered think time
		lock.EmitAcquire(b, f, tid)
		b.Imm(isa.R2, uint64(counter))
		b.Ld(isa.R3, isa.R2, 0)
		b.Addi(isa.R3, isa.R3, 1)
		b.St(isa.R2, 0, isa.R3)
		b.Compute(100)
		lock.EmitRelease(b, f, tid)
		b.Addi(isa.R1, isa.R1, ^uint64(0))
		b.Bnez(isa.R1, loop)
		b.Done()
		m.Load(tid, b.MustBuild(), nil)
	}
	if err := m.Run(100_000_000); err != nil {
		log.Fatal(err)
	}
	return m.Stats()
}

func main() {
	locks := []struct {
		name string
		mk   func(*synclib.Layout, int) synclib.Lock
	}{
		{"T&T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTTASLock(l) }},
		{"Ticket", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTicketLock(l) }},
		{"CLH", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewCLHLock(l, n) }},
		{"MCS", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewMCSLock(l, n) }},
	}
	setups := []string{"Invalidation", "BackOff-0", "BackOff-10", "CB-All", "CB-One"}

	fmt.Println("16 cores x 8 acquisitions of one contended lock")
	fmt.Println("(mean acquire latency in cycles / sync LLC accesses)")
	fmt.Printf("%-8s", "")
	for _, sn := range setups {
		fmt.Printf(" %16s", sn)
	}
	fmt.Println()
	for _, l := range locks {
		fmt.Printf("%-8s", l.name)
		for _, sn := range setups {
			s, err := experiments.SetupByName(sn)
			if err != nil {
				log.Fatal(err)
			}
			st := run(l.mk, s)
			fmt.Printf(" %8.0f /%6d", st.SyncLatency(isa.SyncAcquire), st.LLCSyncByKind[isa.SyncAcquire])
		}
		fmt.Println()
	}
	fmt.Println("\nNote how the callback directory hands the lock off with a single")
	fmt.Println("wake-up (CB-One) instead of waking every waiter (CB-All) or")
	fmt.Println("hammering the LLC (BackOff-0) — and how the queue lock (CLH) makes")
	fmt.Println("the choice of spin-waiting technique, not the lock algorithm, the")
	fmt.Println("deciding factor, as in Figure 23 of the paper.")
	_ = workload.StyleScalable // examples import the public workload API too
}
