package workload

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

func TestNineteenProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 19 {
		t.Fatalf("profiles = %d, want 19 (entire Splash-2 + PARSEC subset)", len(ps))
	}
	seen := map[string]bool{}
	splash, parsec := 0, 0
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "splash2":
			splash++
		case "parsec":
			parsec++
		default:
			t.Fatalf("profile %q has unknown suite %q", p.Name, p.Suite)
		}
		if p.Phases < 1 {
			t.Fatalf("profile %q has no phases", p.Name)
		}
	}
	if splash != 12 || parsec != 7 {
		t.Fatalf("suites = %d splash2 + %d parsec, want 12 + 7", splash, parsec)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("ocean")
	if err != nil || p.Name != "ocean" {
		t.Fatalf("ByName(ocean) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestGenerateDeterministic checks that generation through one reused
// builder and random source leaves no residue between threads or calls:
// two Generate calls give deep-equal results for every profile, style
// and flavour, and each program is allocated at its exact size.
func TestGenerateDeterministic(t *testing.T) {
	for _, p := range Profiles() {
		for _, style := range []SyncStyle{StyleScalable, StyleNaive} {
			for _, f := range []synclib.Flavor{synclib.FlavorMESI, synclib.FlavorBackoff, synclib.FlavorCBAll, synclib.FlavorCBOne} {
				g1, g2 := Generate(p, 4, style, f), Generate(p, 4, style, f)
				if len(g1.Programs) != 4 {
					t.Fatalf("programs = %d, want 4", len(g1.Programs))
				}
				if !reflect.DeepEqual(g1, g2) {
					t.Fatalf("%s/%s/%s: nondeterministic generation", p.Name, style, f)
				}
				for tid, prog := range g1.Programs {
					if cap(prog.Ins) != len(prog.Ins) {
						t.Fatalf("%s/%s/%s thread %d: cap %d for %d instructions", p.Name, style, f, tid, cap(prog.Ins), len(prog.Ins))
					}
				}
			}
		}
	}
}

func TestFlavorFor(t *testing.T) {
	if FlavorFor(true, false, false) != synclib.FlavorMESI {
		t.Fatal("invalidation should map to MESI flavour")
	}
	if FlavorFor(false, false, false) != synclib.FlavorBackoff {
		t.Fatal("default should map to backoff flavour")
	}
	if FlavorFor(false, true, false) != synclib.FlavorCBAll {
		t.Fatal("callback should map to CB-All")
	}
	if FlavorFor(false, true, true) != synclib.FlavorCBOne {
		t.Fatal("callback+one should map to CB-One")
	}
}

// runProfile executes a profile end to end on a small machine.
func runProfile(t *testing.T, name string, proto machine.Protocol, style SyncStyle) machine.Stats {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	f := FlavorFor(proto == machine.ProtocolMESI, proto == machine.ProtocolCallback, false)
	const cores = 9
	g := Generate(p, cores, style, f)
	cfg := machine.Default(proto)
	cfg.Cores = cores
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatalf("%s on %v: %v", name, proto, err)
	}
	return m.Stats()
}

func TestAllProfilesRunToCompletion(t *testing.T) {
	// Every profile must terminate under every protocol (scalable
	// style); this is the whole-system integration test.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, proto := range []machine.Protocol{
				machine.ProtocolMESI, machine.ProtocolBackoff, machine.ProtocolCallback,
			} {
				st := runProfile(t, name, proto, StyleScalable)
				if st.Cycles == 0 {
					t.Fatalf("%v: zero cycles", proto)
				}
			}
		})
	}
}

func TestNaiveStyleRuns(t *testing.T) {
	for _, proto := range []machine.Protocol{
		machine.ProtocolMESI, machine.ProtocolBackoff, machine.ProtocolCallback,
	} {
		st := runProfile(t, "radiosity", proto, StyleNaive)
		if st.Cycles == 0 {
			t.Fatalf("%v: zero cycles", proto)
		}
	}
}

func TestLockHeavyProfileExercisesCallbacks(t *testing.T) {
	st := runProfile(t, "fluidanimate", machine.ProtocolCallback, StyleScalable)
	if st.CBDirAccesses == 0 {
		t.Fatal("lock-heavy profile never touched the callback directory")
	}
}

func TestGenerateCustomCombos(t *testing.T) {
	p, _ := ByName("radiosity")
	for _, lk := range []LockKind{LockCLH, LockTTAS} {
		for _, bk := range []BarrierKind{BarrierTree, BarrierSR} {
			g := GenerateCustom(p, 4, lk, bk, synclib.FlavorCBOne)
			if len(g.Programs) != 4 {
				t.Fatalf("%v+%v: %d programs", lk, bk, len(g.Programs))
			}
		}
	}
	if s := LockTTAS.String() + BarrierSR.String() + LockCLH.String() + BarrierTree.String(); s == "" {
		t.Fatal("kind stringers broken")
	}
	if lk, bk := StyleNaive.Kinds(); lk != LockTTAS || bk != BarrierSR {
		t.Fatal("naive kinds wrong")
	}
	if lk, bk := StyleScalable.Kinds(); lk != LockCLH || bk != BarrierTree {
		t.Fatal("scalable kinds wrong")
	}
}

// TestDataClassification: the bulk of each thread's data partition is
// private (excluded from coherence); only boundary lines are shared.
func TestDataClassification(t *testing.T) {
	p, _ := ByName("fft")
	g := Generate(p, 4, StyleScalable, synclib.FlavorBackoff)
	// The generator forms data addresses with an Imm into the base
	// register immediately before each access; count accesses on each
	// side of the private/shared split.
	privOps, sharedOps := 0, 0
	for _, prog := range g.Programs {
		var regImm [isa.NumRegs]uint64
		for _, in := range prog.Ins {
			if in.Op == isa.Imm {
				regImm[in.Rd] = in.ImmVal
				continue
			}
			if in.Op != isa.Ld && in.Op != isa.St {
				continue
			}
			if synclib.IsPrivate(memtypes.Addr(regImm[in.Base]) + memtypes.Addr(in.Offset)) {
				privOps++
			} else {
				sharedOps++
			}
		}
	}
	if privOps == 0 || sharedOps == 0 {
		t.Fatalf("priv=%d shared=%d: workloads must touch both private partitions and shared boundaries", privOps, sharedOps)
	}
	if privOps < sharedOps {
		t.Fatalf("priv=%d shared=%d: the bulk of data should be private, as in the paper's applications", privOps, sharedOps)
	}
	if !synclib.IsPrivate(synclib.PrivateBase) {
		t.Fatal("PrivateBase should classify private")
	}
	if synclib.IsPrivate(synclib.SharedBase) {
		t.Fatal("SharedBase should classify shared")
	}
	// Run under the backoff protocol and check both kinds of traffic
	// exist: private lines are fetched but never written through by
	// fences.
	cfg := machine.Default(machine.ProtocolBackoff)
	cfg.Cores = 4
	m := machine.New(cfg, synclib.IsPrivate)
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	if err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestRunsAreDeterministic: two identical runs must produce bit-identical
// statistics — the simulator's core design property.
func TestRunsAreDeterministic(t *testing.T) {
	run := func() machine.Stats {
		p, _ := ByName("dedup")
		g := Generate(p, 9, StyleScalable, synclib.FlavorCBOne)
		cfg := machine.Default(machine.ProtocolCallback)
		cfg.Cores = 9
		m := machine.New(cfg, synclib.IsPrivate)
		for a, v := range g.Layout.Init {
			m.Store.StoreWord(a, v)
		}
		for tid, prog := range g.Programs {
			m.Load(tid, prog, nil)
		}
		if err := m.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs:\n%+v\nvs\n%+v", a, b)
	}
}
