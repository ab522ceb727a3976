package litmus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/synclib"
)

// stormConfig is the harshest legal callback-directory configuration: a
// single entry per bank replaced by plain LRU, so every competing racy
// address displaces a live entry and waiters are routinely answered by
// stale eviction wakes instead of writes.
func stormConfig(cores int) machine.Config {
	cfg := machine.Default(machine.ProtocolCallback)
	cfg.Cores = cores
	cfg.CBEntriesPerBank = 1
	cfg.CBEvict = core.EvictLRU
	return cfg
}

// TestRandProgramsUnderEvictionStorm runs the random DRF programs on
// capacity-1 directories with waiter-blind LRU replacement. Section
// 2.3.1's claim — an entry, waiters included, may be evicted at any
// time — means the analytically known counter values must still appear;
// the storm only costs stale wake-ups.
func TestRandProgramsUnderEvictionStorm(t *testing.T) {
	// Seeds whose racy addresses contend within a bank (seed 4, for one,
	// spreads its few sync addresses across distinct banks and never
	// evicts even at capacity 1).
	for _, seed := range []int64{1, 2, 3} {
		p := RandProgram(seed, 8)
		p.Encode(synclib.FlavorCBOne)
		cfg := stormConfig(9)
		out, m, err := RunConfig(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, want := range p.Expected {
			if out.Mem[i] != want {
				t.Errorf("%s: counter %d = %d, want %d", p.Name, i, out.Mem[i], want)
			}
		}
		s := m.Stats()
		if s.CBEvictions == 0 {
			t.Errorf("%s: capacity-1 directories saw no evictions; storm did not happen", p.Name)
		}
		t.Logf("%s: %d evictions, %d stale wakes", p.Name, s.CBEvictions, s.CBStaleWakes)
	}
}

// TestMessagePassingUnderEvictionStorm replays the MP litmus shape with
// blocking callback reads against capacity-1 directories while a third
// thread hammers unrelated racy addresses through the same banks: the
// spinner's entry can be displaced before the matching write arrives,
// yet the forbidden outcome (flag seen, data stale) stays forbidden —
// stale eviction wakes re-issue the read rather than losing it.
func TestMessagePassingUnderEvictionStorm(t *testing.T) {
	writer := isa.NewBuilder().
		Imm(isa.R1, uint64(x)).
		Imm(isa.R2, 1).
		StThrough(isa.R1, 0, isa.R2).
		Imm(isa.R1, uint64(y)).
		StThrough(isa.R1, 0, isa.R2).
		Done().
		MustBuild()
	b := isa.NewBuilder()
	spin := b.NewLabel()
	reader := b.
		Imm(isa.R1, uint64(y)).
		Bind(spin).
		LdCB(isa.R2, isa.R1, 0).
		Beqz(isa.R2, spin).
		Imm(isa.R1, uint64(x)).
		LdThrough(isa.R3, isa.R1, 0).
		Done().
		MustBuild()
	// The storm thread spins racy reads over a spread of addresses that
	// map across banks, each read installing an entry that displaces
	// whatever was there.
	sb := isa.NewBuilder()
	top := sb.NewLabel()
	sb.Imm(isa.R5, 200)
	sb.Bind(top)
	for i := 0; i < 8; i++ {
		sb.Imm(isa.R1, uint64(x)+0x400+uint64(i)*0x40)
		sb.LdThrough(isa.R2, isa.R1, 0)
		sb.Imm(isa.R3, uint64(i))
		sb.StThrough(isa.R1, 0, isa.R3)
	}
	sb.Addi(isa.R5, isa.R5, ^uint64(0)) // -1
	sb.Bnez(isa.R5, top)
	storm := sb.Done().MustBuild()

	p := Program{
		Name:        "MP-storm",
		Threads:     []*isa.Program{writer, reader, storm},
		ObserveRegs: []RegObs{{Thread: 1, Reg: isa.R3}},
	}
	out, m, err := RunConfig(p, stormConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Regs[0] != 1 {
		t.Errorf("MP under storm: r = %d, want 1", out.Regs[0])
	}
	if s := m.Stats(); s.CBDirAccesses == 0 {
		t.Error("MP under storm never touched the callback directory")
	}
}
