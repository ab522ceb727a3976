package machine

import (
	"strconv"

	"repro/internal/digest"
)

// This file computes canonical per-cycle-boundary state digests: the
// divergence bisector's measuring instrument. At an exact cycle boundary
// (see RunToCycle) two machines of compatible configuration agree on
// their Full digest if and only if they are behaviorally
// indistinguishable from that boundary on — the digest folds exactly the
// state that Snapshot would capture, plus the transient mid-run state
// Snapshot refuses (pending L1 operations, busy directory lines, parked
// callback reads, in-flight message counts), represented as data.
//
// Two deliberate exclusions:
//
//   - The kernel clock. At a boundary pause the clock rests on the last
//     fired event's cycle, which two otherwise-identical runs can reach
//     through different empty-cycle gaps. Scheduled and executed event
//     counts are included instead.
//   - Chaos-engine internals (PRNG position, fault counters, FIFO
//     floors). A chaos run digest-diverges from its fault-free twin at
//     the first fault that perturbs machine state — not at the first
//     RNG draw — which is exactly the boundary the bisector is asked to
//     find.

// DigestScope selects how much state a digest folds.
type DigestScope int

const (
	// ScopeFull folds all mutable machine state. Comparable only
	// between machines with DigestCompatible configurations.
	ScopeFull DigestScope = iota
	// ScopeArch folds only architecturally visible state: the
	// authoritative memory store and per-core completion. Comparable
	// across protocols and structural parameters — the cross-protocol
	// bisection scope.
	ScopeArch
)

func (s DigestScope) String() string {
	if s == ScopeArch {
		return "arch"
	}
	return "full"
}

// DigestCompatible reports whether ScopeFull digests of machines built
// from a and b are meaningfully comparable: equal configurations up to
// the knobs that do not change the machine's structure — fault
// injection (chaos state is excluded from digests), the liveness
// watchdog (pure observer), and the kernel implementation (wheel and
// heap-only schedulers are byte-identical by construction). Bisections
// between incompatible configurations fall back to ScopeArch.
func DigestCompatible(a, b Config) bool {
	a.Chaos, b.Chaos = nil, nil
	a.ChaosSeed, b.ChaosSeed = 0, 0
	a.Watchdog, b.Watchdog = 0, 0
	a.HeapOnlyKernel, b.HeapOnlyKernel = false, false
	return a == b
}

// ComponentDigest is one component's contribution to a machine digest,
// used by the bisector to attribute a divergence.
type ComponentDigest struct {
	Name string
	Sum  uint64
}

// ComponentDigests returns the per-component digests in canonical order.
// The machine need not be quiescent, but the caller must be at an exact
// cycle boundary (RunToCycle) for cross-run comparisons to be sound.
func (m *Machine) ComponentDigests(scope DigestScope) []ComponentDigest {
	var out []ComponentDigest
	add := func(name string, fold func(*digest.Hash)) {
		h := digest.New()
		fold(h)
		out = append(out, ComponentDigest{Name: name, Sum: h.Sum()})
	}

	if scope == ScopeArch {
		add("store", m.Store.Digest)
		add("cores", func(h *digest.Hash) {
			for _, c := range m.Cores {
				h.Bool(c.Done())
			}
		})
		return out
	}

	add("kernel", func(h *digest.Hash) {
		h.U64(m.K.Scheduled())
		h.U64(m.K.Executed())
	})
	add("run", func(h *digest.Hash) {
		h.Int(m.loaded)
		h.Int(m.finished)
	})
	add("store", m.Store.Digest)
	add("mesh", m.Mesh.Digest)
	for i, c := range m.Cores {
		add("core"+strconv.Itoa(i), c.Digest)
	}
	for i, t := range m.tiles {
		add(m.tileKind+strconv.Itoa(i), t.Digest)
	}
	return out
}

// Digest folds the component digests into one machine digest.
func (m *Machine) Digest(scope DigestScope) uint64 {
	h := digest.New()
	for _, cd := range m.ComponentDigests(scope) {
		h.Str(cd.Name)
		h.U64(cd.Sum)
	}
	return h.Sum()
}

// DiffComponents compares two component-digest lists (from machines at
// the same boundary and scope) and returns the names that differ. Lists
// from DigestCompatible machines align name-for-name; a name present on
// only one side counts as differing.
func DiffComponents(a, b []ComponentDigest) []string {
	inA := make(map[string]uint64, len(a))
	for _, cd := range a {
		inA[cd.Name] = cd.Sum
	}
	var diff []string
	seen := make(map[string]bool, len(b))
	for _, cd := range b {
		seen[cd.Name] = true
		if sum, ok := inA[cd.Name]; !ok || sum != cd.Sum {
			diff = append(diff, cd.Name)
		}
	}
	for _, cd := range a {
		if !seen[cd.Name] {
			diff = append(diff, cd.Name)
		}
	}
	return diff
}
