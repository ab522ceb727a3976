// Quickstart: build a small simulated CMP, make one core spin-wait on a
// flag another core sets, and compare what the wait costs under LLC
// spinning (the VIPS-M back-off baseline) versus a callback read (the
// paper's contribution).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
)

// spinWait builds a 4-core machine where core 0 computes for a while and
// then writes a flag, while core 1 spin-waits for it. useCallback selects
// ld_cb (blocking in the callback directory) vs ld_through spinning.
func spinWait(p machine.Protocol, useCallback bool) machine.Stats {
	cfg := machine.Default(p)
	cfg.Cores = 4
	cfg.BackoffLimit = 0 // direct LLC spinning for the baseline
	m := machine.New(cfg, nil)

	flag := memtypes.Addr(0x1000)

	// Producer: work for 20000 cycles, then st_through the flag.
	producer := isa.NewBuilder().
		Compute(20000).
		Imm(isa.R1, uint64(flag)).
		Imm(isa.R2, 1).
		StThrough(isa.R1, 0, isa.R2).
		Done().
		MustBuild()

	// Consumer: spin until the flag is set. The callback version uses
	// the guard ld_through + ld_cb loop of Section 3.3; the baseline
	// re-reads the LLC forever.
	b := isa.NewBuilder()
	spin, exit := b.NewLabel(), b.NewLabel()
	b.Imm(isa.R1, uint64(flag))
	b.SyncBegin(isa.SyncWait)
	if useCallback {
		b.Bind(spin)
		b.LdThrough(isa.R2, isa.R1, 0)
		b.Bnez(isa.R2, exit)
		b.LdCB(isa.R2, isa.R1, 0)
		b.Beqz(isa.R2, spin)
		b.Bind(exit)
	} else {
		b.Bind(spin)
		b.LdThrough(isa.R2, isa.R1, 0)
		b.Beqz(isa.R2, spin)
	}
	b.SyncEnd(isa.SyncWait)
	b.Done()

	m.Load(0, producer, nil)
	m.Load(1, b.MustBuild(), nil)
	if err := m.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	return m.Stats()
}

func main() {
	spin := spinWait(machine.ProtocolBackoff, false)
	cb := spinWait(machine.ProtocolCallback, true)

	fmt.Println("One 20000-cycle spin-wait, 4-core machine:")
	fmt.Printf("%-22s %12s %12s %12s\n", "", "LLC accesses", "flit-hops", "wait cycles")
	fmt.Printf("%-22s %12d %12d %12d\n", "LLC spinning (VIPS-M)",
		spin.LLCAccesses, spin.Net.FlitHops, spin.SyncCycles[isa.SyncWait])
	fmt.Printf("%-22s %12d %12d %12d\n", "callback (this paper)",
		cb.LLCAccesses, cb.Net.FlitHops, cb.SyncCycles[isa.SyncWait])
	fmt.Printf("\nThe callback read blocks in the %d-entry callback directory and is\n",
		machine.Default(machine.ProtocolCallback).CBEntriesPerBank)
	fmt.Printf("woken by the write itself: %dx fewer LLC accesses for the same wait.\n",
		spin.LLCAccesses/max(cb.LLCAccesses, 1))
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
