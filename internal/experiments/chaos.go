package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memtypes"
	"repro/internal/workload"
)

// The chaos sweep exercises the paper's robustness claims adversarially:
// every synchronization kernel and generated litmus program runs under a
// matrix of fault mixes and seeds, with the liveness watchdog armed and
// runtime invariant checking on, and each chaotic run's outcome — the
// final shared-memory state and the synchronization-episode counts,
// which faults may never change — is asserted identical to the
// fault-free baseline. Timing (cycles, traffic) is expected to differ;
// results (memory, lock acquisitions) are not allowed to.

// quiesceBudget bounds the post-run event-queue drain: in-flight acks
// and delayed wakes must land within this many extra cycles once every
// core has finished.
const quiesceBudget = 1_000_000

// ChaosEntry names one fault mix of a chaos matrix.
type ChaosEntry struct {
	Name string
	Spec *chaos.Spec
}

// DefaultChaosMatrix returns one entry per chaos preset (see
// chaos.Presets): the standard fault matrix for CI.
func DefaultChaosMatrix() []ChaosEntry {
	var out []ChaosEntry
	for _, name := range chaos.Presets() {
		spec, err := chaos.Parse(name)
		if err != nil {
			panic(err)
		}
		out = append(out, ChaosEntry{Name: name, Spec: spec})
	}
	return out
}

// ChaosCell records one (workload, fault mix, seed) run that matched its
// baseline.
type ChaosCell struct {
	Workload string
	Spec     string
	Seed     uint64
	// Cycles is the chaotic run's execution time (timing differs from
	// the baseline; outcome must not).
	Cycles uint64
	// Faults counts what was actually injected.
	Faults chaos.Stats
}

// ChaosReport is a chaos sweep's result: every cell ran, terminated, and
// matched its fault-free baseline.
type ChaosReport struct {
	Workloads int
	Cells     []ChaosCell
}

// chaosWorkload is one unit of the sweep: run yields an outcome
// signature (everything that must be fault-invariant) plus timing and
// fault counters.
type chaosWorkload struct {
	name string
	run  func(o Options) (sig string, cell ChaosCell, err error)
}

// sharedSignature renders the final state of the workload's observable
// data — the part of the store a correct run must reproduce regardless
// of injected faults. Workloads with an Observe list get exactly those
// addresses (sync-primitive internals like CLH queue-node pointers end
// with legitimately order-dependent residue and must be excluded);
// otherwise every non-zero word of the layout's shared span counts.
func sharedSignature(m *machine.Machine, g *workload.Generated) string {
	sig := ""
	if g.Observe != nil {
		for _, a := range g.Observe {
			sig += fmt.Sprintf("%#x=%d;", uint64(a), m.Store.Load(a))
		}
		return sig
	}
	base, end := g.Layout.SharedSpan()
	for a := base; a < end; a += memtypes.Addr(memtypes.WordBytes) {
		if v := m.Store.Load(a); v != 0 {
			sig += fmt.Sprintf("%#x=%d;", uint64(a), v)
		}
	}
	return sig
}

// chaosPostRun drains the event queue, checks the final cross-layer
// invariants (no parked ops, no set callback bits, no leaked messages),
// and snapshots the shared memory. Both baseline and chaotic runs go
// through it, so signatures are taken at the same quiesced point.
func chaosPostRun(sig *string) func(m *machine.Machine, g *workload.Generated) error {
	return func(m *machine.Machine, g *workload.Generated) error {
		if err := m.Quiesce(quiesceBudget); err != nil {
			return err
		}
		if err := m.CheckInvariants(true); err != nil {
			return err
		}
		*sig = sharedSignature(m, g)
		return nil
	}
}

// chaosWorkloads assembles the sweep's workload set: every Figure-20
// synchronization microbenchmark under both callback setups, plus
// generated litmus programs under the callback and invalidation
// protocols (the latter exercises the NoC and LLC faults on a protocol
// with no callback directory).
func chaosWorkloads(o Options) []chaosWorkload {
	var ws []chaosWorkload
	for _, setupName := range []string{"CB-All", "CB-One"} {
		s, err := SetupByName(setupName)
		if err != nil {
			panic(err)
		}
		for _, mc := range Micros() {
			mc, s := mc, s
			ws = append(ws, chaosWorkload{
				name: fmt.Sprintf("%s/%s", mc.Name, s.Name),
				run: func(o Options) (string, ChaosCell, error) {
					var memSig string
					o.postRun = chaosPostRun(&memSig)
					res, err := RunMicro(mc, s, o)
					if err != nil {
						return "", ChaosCell{}, err
					}
					sig := fmt.Sprintf("%s|sync=%v", memSig, res.Stats.SyncEntries)
					return sig, ChaosCell{Cycles: res.Stats.Cycles, Faults: res.Stats.Chaos}, nil
				},
			})
		}
	}
	for _, progSeed := range []int64{1, 2} {
		for _, proto := range []machine.Protocol{machine.ProtocolCallback, machine.ProtocolMESI} {
			progSeed, proto := progSeed, proto
			ws = append(ws, chaosWorkload{
				name: fmt.Sprintf("rand-%d/%v", progSeed, proto),
				run: func(o Options) (string, ChaosCell, error) {
					threads := o.Cores
					if threads > 8 {
						threads = 8
					}
					p := litmus.RandProgram(int64(progSeed), threads)
					p.Encode(litmus.FlavorFor(proto))
					cfg := machine.Default(proto)
					cfg.Cores = o.Cores
					cfg.Chaos = o.Chaos
					cfg.ChaosSeed = o.ChaosSeed
					cfg.Watchdog = o.Watchdog
					out, m, err := litmus.RunConfig(p, cfg)
					if err != nil {
						return "", ChaosCell{}, err
					}
					if err := m.Quiesce(quiesceBudget); err != nil {
						return "", ChaosCell{}, err
					}
					if err := m.CheckInvariants(true); err != nil {
						return "", ChaosCell{}, err
					}
					for i, want := range p.Expected {
						if out.Mem[i] != want {
							return "", ChaosCell{}, fmt.Errorf("litmus %s under %v: counter %d = %d, want %d",
								p.Name, proto, i, out.Mem[i], want)
						}
					}
					st := m.Stats()
					return out.String(), ChaosCell{Cycles: st.Cycles, Faults: st.Chaos}, nil
				},
			})
		}
	}
	return ws
}

// runChaosWorkloads runs the fault matrix over the workload set ws.
// entries defaults to DefaultChaosMatrix, seeds to {1}. Every (workload,
// entry, seed) cell must terminate (the watchdog converts lost wakeups
// into typed failures instead of hangs) and reproduce the fault-free
// outcome; the first divergence, invariant violation, or watchdog trip
// fails the sweep with a descriptive error. Cells fan out across
// o.Parallelism workers.
func runChaosWorkloads(o Options, ws []chaosWorkload, entries []ChaosEntry, seeds []uint64) (*ChaosReport, error) {
	o = o.fill()
	if o.Watchdog == 0 {
		o.Watchdog = machine.DefaultWatchdogWindow
	}
	if len(entries) == 0 {
		entries = DefaultChaosMatrix()
	}
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}

	// Fault-free baselines, one per workload (watchdog armed there
	// too: a correct protocol must never trip it).
	base := make([]string, len(ws))
	err := o.forEach(len(ws), func(i int) error {
		bo := o
		bo.Chaos, bo.ChaosSeed = nil, 0
		sig, _, err := ws[i].run(bo)
		if err != nil {
			return fmt.Errorf("chaos baseline %s: %w", ws[i].name, err)
		}
		base[i] = sig
		return nil
	})
	if err != nil {
		return nil, err
	}

	perWorkload := len(entries) * len(seeds)
	cells := make([]ChaosCell, len(ws)*perWorkload)
	err = o.forEach(len(cells), func(idx int) error {
		wi := idx / perWorkload
		ei := idx % perWorkload / len(seeds)
		si := idx % len(seeds)
		w, e, seed := ws[wi], entries[ei], seeds[si]
		co := o
		co.Chaos, co.ChaosSeed = e.Spec, seed
		sig, cell, err := w.run(co)
		if err != nil {
			return fmt.Errorf("chaos %s under %s seed %d: %w", w.name, e.Name, seed, err)
		}
		if sig != base[wi] {
			return fmt.Errorf("chaos %s under %s seed %d: outcome diverged from fault-free baseline\n  baseline: %s\n  chaotic:  %s",
				w.name, e.Name, seed, base[wi], sig)
		}
		cell.Workload, cell.Spec, cell.Seed = w.name, e.Name, seed
		cells[idx] = cell
		o.Logf("chaos %-24s %-8s seed=%d  cycles=%d  evictions=%d wakes=%d delays=%d",
			w.name, e.Name, seed, cell.Cycles, cell.Faults.ForcedEvictions,
			cell.Faults.SpuriousWakes, cell.Faults.NoCDelays)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Workloads: len(ws), Cells: cells}, nil
}
