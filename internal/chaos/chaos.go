// Package chaos is a deterministic, seeded fault-injection layer for the
// simulator. A Spec describes which faults to inject and how hard; an
// Engine draws per-site faults from a splitmix64 stream so that a given
// (spec, seed) pair replays the exact same fault schedule on every run.
//
// The faults model the adversities the callback paper argues the protocol
// tolerates by construction: directory entries may be evicted at any time
// (waiters are answered with the current value), wakes may be spurious or
// delayed, and the network may stretch or jitter message latencies. None
// of them may change the *outcome* of a correct program — only its timing
// — which is exactly what the experiments chaos sweep asserts.
//
// The package is a leaf: it imports nothing from the simulator so every
// layer (noc, core, vips, mesi, machine) can hold an *Engine without
// import cycles. All hooks are nil-guarded at the call sites, so with
// chaos disabled the simulator's hot paths and Stats are untouched.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Rand is a splitmix64 generator: tiny, fast, and fully determined by its
// seed. Global math/rand is banned in simulator packages (see the
// determinism analyzer); this is the sanctioned replacement for fault
// draws.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// uncorrelated streams; the same seed replays the same stream.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9E3779B97F4A7C15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("chaos: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// probScale is the fixed-point denominator for fault probabilities:
// probabilities are compared as integer thresholds so draws never depend
// on floating-point rounding.
const probScale = 1 << 20

// threshold converts a probability in [0,1] to a fixed-point threshold.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return probScale
	}
	return uint64(p * probScale)
}

// roll reports true with probability t/probScale.
func (r *Rand) roll(t uint64) bool {
	if t == 0 {
		return false
	}
	return r.Uint64()%probScale < t
}

// Spec describes a fault mix. The zero value injects nothing.
type Spec struct {
	// NoCDelayP is the probability that an injected message is held at
	// its source for up to NoCDelayMax extra cycles before entering the
	// network — a per-message delay that also opens reordering windows
	// between messages on the same route.
	NoCDelayP   float64
	NoCDelayMax uint64

	// HopJitterMax adds a uniform 0..HopJitterMax cycles to every
	// switch-to-switch hop (per-link jitter).
	HopJitterMax uint64

	// EvictStormP is the probability, per racy operation reaching a
	// callback-directory bank, of force-evicting a random valid entry
	// (its waiters are answered with the current value, as the paper
	// permits at any time).
	EvictStormP float64

	// CBCapacity, when positive, overrides the callback directory
	// capacity per bank (1 = evict on nearly every install: the
	// capacity-squeeze ablation).
	CBCapacity int

	// CBEvictLRU forces the plain LRU eviction policy, which evicts
	// entries with live waiters instead of preferring waiter-free ones.
	CBEvictLRU bool

	// SpuriousWakeP is the probability, per racy operation, of waking
	// one waiter on the operation's line without any write having
	// happened (an st_cb0-style spurious wake: the woken spin loop
	// re-checks and re-subscribes).
	SpuriousWakeP float64

	// WakeDelayMax stretches the window between a directory update and
	// the delivery of its wakes by a uniform 0..WakeDelayMax cycles
	// (delayed F/E-bit visibility).
	WakeDelayMax uint64

	// LLCJitterMax adds a uniform 0..LLCJitterMax cycles to every LLC
	// bank access.
	LLCJitterMax uint64
}

// Active reports whether the spec injects any fault or override at all.
func (s *Spec) Active() bool {
	if s == nil {
		return false
	}
	return *s != Spec{}
}

// Presets returns the named fault mixes accepted by Parse, in a stable
// order. "all" exercises every injection site at moderate rates;
// "squeeze" is the directory capacity ablation from the paper's
// robustness argument (capacity 1, waiters always evictable).
func Presets() []string { return []string{"all", "noc", "cbdir", "squeeze", "llc"} }

func preset(name string) (Spec, bool) {
	switch name {
	case "all":
		return Spec{
			NoCDelayP: 0.10, NoCDelayMax: 32,
			HopJitterMax:  3,
			EvictStormP:   0.05,
			SpuriousWakeP: 0.02,
			WakeDelayMax:  16,
			LLCJitterMax:  8,
		}, true
	case "noc":
		return Spec{NoCDelayP: 0.20, NoCDelayMax: 64, HopJitterMax: 5}, true
	case "cbdir":
		return Spec{EvictStormP: 0.10, SpuriousWakeP: 0.05, WakeDelayMax: 32}, true
	case "squeeze":
		return Spec{CBCapacity: 1, CBEvictLRU: true}, true
	case "llc":
		return Spec{LLCJitterMax: 16}, true
	}
	return Spec{}, false
}

// Parse builds a Spec from a comma-separated spec string. Each element is
// a preset name (see Presets), a bare flag, or a key=value pair:
//
//	noc-delay=P        per-message delay probability (0..1)
//	noc-delay-max=N    max per-message delay in cycles (default 32)
//	hop-jitter=N       max per-hop jitter in cycles
//	evict-storm=P      forced-eviction probability per racy op
//	cb-capacity=N      callback directory capacity override
//	cb-evict-lru       force plain LRU eviction (waiters evictable)
//	spurious-wake=P    spurious wake probability per racy op
//	wake-delay=N       max extra cycles before wakes become visible
//	llc-jitter=N       max extra cycles per LLC bank access
//
// Later elements override earlier ones, so "all,cb-capacity=2" works.
// "off" (or an empty string) yields an inactive spec.
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" || tok == "off" {
			continue
		}
		if p, ok := preset(tok); ok {
			merge(spec, p)
			continue
		}
		if tok == "cb-evict-lru" {
			spec.CBEvictLRU = true
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: unknown element %q (presets: %s)", tok, strings.Join(Presets(), ", "))
		}
		var err error
		switch key {
		case "noc-delay":
			spec.NoCDelayP, err = parseProb(val)
			if spec.NoCDelayMax == 0 {
				spec.NoCDelayMax = 32
			}
		case "noc-delay-max":
			spec.NoCDelayMax, err = parseCycles(val)
		case "hop-jitter":
			spec.HopJitterMax, err = parseCycles(val)
		case "evict-storm":
			spec.EvictStormP, err = parseProb(val)
		case "cb-capacity":
			var n int
			n, err = strconv.Atoi(val)
			if err == nil && n <= 0 {
				err = fmt.Errorf("must be positive")
			}
			spec.CBCapacity = n
		case "spurious-wake":
			spec.SpuriousWakeP, err = parseProb(val)
		case "wake-delay":
			spec.WakeDelayMax, err = parseCycles(val)
		case "llc-jitter":
			spec.LLCJitterMax, err = parseCycles(val)
		default:
			return nil, fmt.Errorf("chaos: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %s=%s: %v", key, val, err)
		}
	}
	return spec, nil
}

// merge overlays the non-zero fields of p onto spec.
func merge(spec *Spec, p Spec) {
	if p.NoCDelayP != 0 {
		spec.NoCDelayP = p.NoCDelayP
	}
	if p.NoCDelayMax != 0 {
		spec.NoCDelayMax = p.NoCDelayMax
	}
	if p.HopJitterMax != 0 {
		spec.HopJitterMax = p.HopJitterMax
	}
	if p.EvictStormP != 0 {
		spec.EvictStormP = p.EvictStormP
	}
	if p.CBCapacity != 0 {
		spec.CBCapacity = p.CBCapacity
	}
	if p.CBEvictLRU {
		spec.CBEvictLRU = true
	}
	if p.SpuriousWakeP != 0 {
		spec.SpuriousWakeP = p.SpuriousWakeP
	}
	if p.WakeDelayMax != 0 {
		spec.WakeDelayMax = p.WakeDelayMax
	}
	if p.LLCJitterMax != 0 {
		spec.LLCJitterMax = p.LLCJitterMax
	}
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability out of [0,1]")
	}
	return p, nil
}

func parseCycles(s string) (uint64, error) {
	return strconv.ParseUint(s, 10, 32)
}

// String renders the spec in canonical Parse-able form ("off" when
// inactive). Parse(s.String()) reproduces s.
func (s *Spec) String() string {
	if !s.Active() {
		return "off"
	}
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if s.NoCDelayP != 0 {
		add("noc-delay", strconv.FormatFloat(s.NoCDelayP, 'g', -1, 64))
	}
	if s.NoCDelayMax != 0 {
		add("noc-delay-max", strconv.FormatUint(s.NoCDelayMax, 10))
	}
	if s.HopJitterMax != 0 {
		add("hop-jitter", strconv.FormatUint(s.HopJitterMax, 10))
	}
	if s.EvictStormP != 0 {
		add("evict-storm", strconv.FormatFloat(s.EvictStormP, 'g', -1, 64))
	}
	if s.CBCapacity != 0 {
		add("cb-capacity", strconv.Itoa(s.CBCapacity))
	}
	if s.CBEvictLRU {
		parts = append(parts, "cb-evict-lru")
	}
	if s.SpuriousWakeP != 0 {
		add("spurious-wake", strconv.FormatFloat(s.SpuriousWakeP, 'g', -1, 64))
	}
	if s.WakeDelayMax != 0 {
		add("wake-delay", strconv.FormatUint(s.WakeDelayMax, 10))
	}
	if s.LLCJitterMax != 0 {
		add("llc-jitter", strconv.FormatUint(s.LLCJitterMax, 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Stats counts injected faults, per site.
type Stats struct {
	NoCDelays       uint64 // messages held back at injection
	NoCDelayCycles  uint64 // total cycles of injected send delay
	HopJitterCycles uint64 // total cycles of per-hop jitter
	ForcedEvictions uint64 // eviction-storm victims
	SpuriousWakes   uint64 // waiters woken without a write
	WakeDelayCycles uint64 // total cycles of delayed wake visibility
	LLCJitterCycles uint64 // total cycles of LLC latency jitter
}

// Engine draws faults for one machine from a single seeded stream. It is
// shared by the mesh, the directory banks, and the LLC directories of one
// machine; machines are single-goroutine, so no locking is needed.
type Engine struct {
	spec  Spec
	rng   Rand
	stats Stats

	// fixed-point thresholds precomputed from spec
	nocDelayT     uint64
	evictStormT   uint64
	spuriousWakeT uint64
}

// NewEngine returns an engine injecting spec's faults from the stream
// seeded by seed.
func NewEngine(spec Spec, seed uint64) *Engine {
	return &Engine{
		spec:          spec,
		rng:           *NewRand(seed),
		nocDelayT:     threshold(spec.NoCDelayP),
		evictStormT:   threshold(spec.EvictStormP),
		spuriousWakeT: threshold(spec.SpuriousWakeP),
	}
}

// Spec returns the engine's fault mix.
func (e *Engine) Spec() Spec { return e.spec }

// Stats returns a copy of the injected-fault counters.
func (e *Engine) Stats() Stats { return e.stats }

// SendDelay returns the extra cycles to hold the next message at its
// source (0 = inject immediately).
func (e *Engine) SendDelay() uint64 {
	if !e.rng.roll(e.nocDelayT) {
		return 0
	}
	d := 1 + e.rng.Uint64()%e.spec.NoCDelayMax
	e.stats.NoCDelays++
	e.stats.NoCDelayCycles += d
	return d
}

// HopJitter returns the extra cycles for the next switch-to-switch hop.
func (e *Engine) HopJitter() uint64 {
	if e.spec.HopJitterMax == 0 {
		return 0
	}
	d := e.rng.Uint64() % (e.spec.HopJitterMax + 1)
	e.stats.HopJitterCycles += d
	return d
}

// ForcedEviction reports whether the current racy operation should force
// an eviction, and if so returns a pick used to select the victim entry.
func (e *Engine) ForcedEviction() (pick int, ok bool) {
	if !e.rng.roll(e.evictStormT) {
		return 0, false
	}
	e.stats.ForcedEvictions++
	return int(e.rng.Uint64() >> 33), true
}

// SpuriousWake reports whether the current racy operation should wake one
// waiter on its line without a write.
func (e *Engine) SpuriousWake() bool {
	if !e.rng.roll(e.spuriousWakeT) {
		return false
	}
	e.stats.SpuriousWakes++
	return true
}

// Pick returns a uniform index in [0, n), for choosing among n candidates
// (e.g. which waiter a spurious wake hits).
func (e *Engine) Pick(n int) int { return e.rng.Intn(n) }

// WakeDelay returns the extra cycles before a directory update's wakes
// become visible to the woken cores.
func (e *Engine) WakeDelay() uint64 {
	if e.spec.WakeDelayMax == 0 {
		return 0
	}
	d := e.rng.Uint64() % (e.spec.WakeDelayMax + 1)
	e.stats.WakeDelayCycles += d
	return d
}

// LLCJitter returns the extra cycles for the next LLC bank access.
func (e *Engine) LLCJitter() uint64 {
	if e.spec.LLCJitterMax == 0 {
		return 0
	}
	d := e.rng.Uint64() % (e.spec.LLCJitterMax + 1)
	e.stats.LLCJitterCycles += d
	return d
}
