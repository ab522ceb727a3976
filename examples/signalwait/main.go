// Signal/wait pipeline: several waiter cores block on a semaphore while a
// producer signals units one at a time, contrasting callback-one (each
// signal wakes exactly one waiter, via the {ld}&{st_cb1} fetch&add of
// Table 1) with callback-all (every signal wakes everyone and all but one
// lose the race) — the Figure 19 idioms at example scale.
//
// Run with: go run ./examples/signalwait
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/synclib"
)

func run(f synclib.Flavor) machine.Stats {
	const cores = 16
	const waiters = cores - 1
	const perWaiter = 4

	lay := synclib.NewLayout()
	sw := synclib.NewSignalWait(lay)

	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = cores
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range lay.Init {
		m.Store.StoreWord(a, v)
	}

	// Core 0 produces waiters*perWaiter signals, spaced apart.
	pb := isa.NewBuilder()
	loop := pb.NewLabel()
	pb.Imm(isa.R1, waiters*perWaiter)
	pb.Bind(loop)
	pb.Compute(400)
	sw.EmitSignal(pb, f)
	pb.Addi(isa.R1, isa.R1, ^uint64(0))
	pb.Bnez(isa.R1, loop)
	pb.Done()
	m.Load(0, pb.MustBuild(), nil)

	// The rest wait for their share.
	for w := 1; w <= waiters; w++ {
		wb := isa.NewBuilder()
		loop := wb.NewLabel()
		wb.Imm(isa.R1, perWaiter)
		wb.Bind(loop)
		sw.EmitWait(wb, f)
		wb.Compute(50)
		wb.Addi(isa.R1, isa.R1, ^uint64(0))
		wb.Bnez(isa.R1, loop)
		wb.Done()
		m.Load(w, wb.MustBuild(), nil)
	}
	if err := m.Run(100_000_000); err != nil {
		log.Fatal(err)
	}
	return m.Stats()
}

func main() {
	all := run(synclib.FlavorCBAll)
	one := run(synclib.FlavorCBOne)

	fmt.Println("15 waiters x 4 units each, one producer (callback protocol):")
	fmt.Printf("%-14s %12s %12s %14s %12s\n", "", "wakes", "LLC accesses", "wait latency", "flit-hops")
	fmt.Printf("%-14s %12d %12d %14.0f %12d\n", "callback-all",
		all.CBWakes, all.LLCSyncByKind[isa.SyncWait], all.SyncLatency(isa.SyncWait), all.Net.FlitHops)
	fmt.Printf("%-14s %12d %12d %14.0f %12d\n", "callback-one",
		one.CBWakes, one.LLCSyncByKind[isa.SyncWait], one.SyncLatency(isa.SyncWait), one.Net.FlitHops)
	fmt.Println("\nA st_cb1 signal wakes exactly one callback; a st_cbA wakes all")
	fmt.Println("fifteen, and fourteen of them fail their test&decrement and block")
	fmt.Println("again — the premature wake-ups of Figure 5, paid in traffic.")
}
