package litmus

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
)

const (
	x = memtypes.Addr(0x100000)
	y = memtypes.Addr(0x100040)
)

// TestMessagePassingRacy is the MP litmus test with racy operations:
//
//	T0: st_through x,1 ; st_through y,1
//	T1: spin until y==1 ; r = ld_through x
//
// r must be 1 under every protocol: through-ops are SC among themselves
// (Section 3.2), and the blocking core cannot reorder them.
func TestMessagePassingRacy(t *testing.T) {
	for _, proto := range Protocols() {
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
			LdThrough(isa.R2, isa.R1, 0).
			Beqz(isa.R2, spin).
			Imm(isa.R1, uint64(x)).
			LdThrough(isa.R3, isa.R1, 0).
			Done().
			MustBuild()
		p := Program{
			Name:        "MP-racy",
			Threads:     []*isa.Program{writer, reader},
			ObserveRegs: []RegObs{{Thread: 1, Reg: isa.R3}},
		}
		out, err := Run(p, proto, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regs[0] != 1 {
			t.Fatalf("%v: MP read x=%d after observing y=1, want 1 (forbidden outcome)", proto, out.Regs[0])
		}
	}
}

// TestMessagePassingDRF is MP with DRF data published through a
// release/acquire flag: the canonical SC-for-DRF pattern of Section 3.1.
func TestMessagePassingDRF(t *testing.T) {
	for _, proto := range Protocols() {
		data := memtypes.Addr(0x200000)
		flag := memtypes.Addr(0x200040)
		writer := isa.NewBuilder().
			Imm(isa.R1, uint64(data)).
			Imm(isa.R2, 42).
			St(isa.R1, 0, isa.R2). // DRF write
			SelfDown().            // release
			Imm(isa.R1, uint64(flag)).
			Imm(isa.R2, 1).
			StThrough(isa.R1, 0, isa.R2).
			Done().
			MustBuild()
		b := isa.NewBuilder()
		spin := b.NewLabel()
		reader := b.
			Imm(isa.R1, uint64(flag)).
			Bind(spin).
			LdThrough(isa.R2, isa.R1, 0).
			Beqz(isa.R2, spin).
			SelfInvl(). // acquire
			Imm(isa.R1, uint64(data)).
			Ld(isa.R3, isa.R1, 0). // DRF read
			Done().
			MustBuild()
		p := Program{
			Name:        "MP-drf",
			Threads:     []*isa.Program{writer, reader},
			ObserveRegs: []RegObs{{Thread: 1, Reg: isa.R3}},
		}
		out, err := Run(p, proto, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regs[0] != 42 {
			t.Fatalf("%v: acquire read %d, want 42 (release visibility violated)", proto, out.Regs[0])
		}
	}
}

// TestStoreBufferingAtomics is the SB litmus test with atomics: both
// threads swap 1 into their own flag and read the other's. Because
// atomics are SC among themselves, at least one thread must see the
// other's write: r0 == 0 && r1 == 0 is forbidden.
func TestStoreBufferingAtomics(t *testing.T) {
	for _, proto := range Protocols() {
		mk := func(mine, other memtypes.Addr) *isa.Program {
			b := isa.NewBuilder()
			b.Imm(isa.R1, uint64(mine))
			b.Imm(isa.R2, 1)
			b.RMW(isa.R3, isa.R1, 0, isa.RMWSpec{Op: memtypes.RMWSwap, St: memtypes.CBAll, ArgImm: 1})
			b.Imm(isa.R1, uint64(other))
			b.LdThrough(isa.R4, isa.R1, 0)
			b.Done()
			return b.MustBuild()
		}
		p := Program{
			Name:    "SB-atomics",
			Threads: []*isa.Program{mk(x, y), mk(y, x)},
			ObserveRegs: []RegObs{
				{Thread: 0, Reg: isa.R4},
				{Thread: 1, Reg: isa.R4},
			},
		}
		out, err := Run(p, proto, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regs[0] == 0 && out.Regs[1] == 0 {
			t.Fatalf("%v: SB forbidden outcome 0/0 observed", proto)
		}
	}
}

// TestCoherenceSingleLocation checks that racy writes to one word are
// totally ordered: after two st_throughs from different cores complete,
// every protocol agrees on a final value that is one of the two.
func TestCoherenceSingleLocation(t *testing.T) {
	for _, proto := range Protocols() {
		mk := func(v uint64, delay uint64) *isa.Program {
			return isa.NewBuilder().
				Compute(delay).
				Imm(isa.R1, uint64(x)).
				Imm(isa.R2, v).
				StThrough(isa.R1, 0, isa.R2).
				Done().
				MustBuild()
		}
		p := Program{
			Name:    "coherence",
			Threads: []*isa.Program{mk(7, 13), mk(9, 13)},
			Observe: []memtypes.Addr{x},
		}
		out, err := Run(p, proto, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out.Mem[0] != 7 && out.Mem[0] != 9 {
			t.Fatalf("%v: final value %d is neither write", proto, out.Mem[0])
		}
	}
}

// TestAtomicityFetchAdd: N concurrent fetch&adds must all take effect.
func TestAtomicityFetchAdd(t *testing.T) {
	for _, proto := range Protocols() {
		const n = 9
		var threads []*isa.Program
		for i := 0; i < n; i++ {
			threads = append(threads, isa.NewBuilder().
				Compute(uint64(i*7)).
				Imm(isa.R1, uint64(x)).
				FetchAdd(isa.R2, isa.R1, 0, 1, memtypes.CBAll).
				Done().
				MustBuild())
		}
		p := Program{Name: "f&a", Threads: threads, Observe: []memtypes.Addr{x}}
		out, err := Run(p, proto, n)
		if err != nil {
			t.Fatal(err)
		}
		if out.Mem[0] != n {
			t.Fatalf("%v: counter = %d, want %d (lost update)", proto, out.Mem[0], n)
		}
	}
}

// TestRandomProgramsAgree runs randomly generated DRF programs under all
// three protocols: the final lock-protected counters must match the
// analytic expectation everywhere.
func TestRandomProgramsAgree(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		if err := RandCheck(seed, 8); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCallbackVariantsAgreeWithBackoff: the callback protocol with CB-All
// flavour must produce the same DRF results as CB-One and backoff.
func TestCallbackVariantsAgreeWithBackoff(t *testing.T) {
	p := randProgram(99, 8)
	var ref *Outcome
	for _, f := range []struct {
		proto machine.Protocol
		name  string
	}{
		{machine.ProtocolCallback, "cb"},
		{machine.ProtocolBackoff, "backoff"},
	} {
		p.Threads = p.build(flavorFor(f.proto))
		out, err := Run(p, f.proto, 8)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			o := out
			ref = &o
			continue
		}
		for i := range out.Mem {
			if out.Mem[i] != ref.Mem[i] {
				t.Fatalf("%s disagrees: %v vs %v", f.name, out, *ref)
			}
		}
	}
}
