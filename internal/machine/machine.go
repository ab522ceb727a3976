// Package machine assembles a full simulated chip multiprocessor: a
// width x height mesh of tiles, each with an in-order core, a private L1,
// and an LLC bank (plus directory or callback directory depending on the
// protocol), per Table 2 of the paper.
package machine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/digest"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/mesi"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vips"
)

// Protocol selects the coherence configuration under evaluation
// (Section 5.2).
type Protocol uint8

const (
	// ProtocolMESI is the invalidation-based directory baseline.
	ProtocolMESI Protocol = iota
	// ProtocolBackoff is self-invalidation with LLC spinning and
	// exponential back-off (the VIPS-M baseline).
	ProtocolBackoff
	// ProtocolCallback is self-invalidation plus the callback directory.
	ProtocolCallback
	// ProtocolQuiesce is the MESI baseline with a MONITOR/MWAIT-style
	// event monitor at each L1: blocking reads halt the core until the
	// monitored line is invalidated (the quiesce mechanism of the
	// paper's Section 4.1 related work).
	ProtocolQuiesce
	// ProtocolQueueLock is the self-invalidation protocol with the
	// VIPS-M blocking-bit lock queue at the LLC controller instead of
	// callbacks (the lock mechanism the paper contrasts against).
	ProtocolQueueLock
)

func (p Protocol) String() string {
	switch p {
	case ProtocolMESI:
		return "Invalidation"
	case ProtocolBackoff:
		return "BackOff"
	case ProtocolCallback:
		return "Callback"
	case ProtocolQuiesce:
		return "Quiesce"
	case ProtocolQueueLock:
		return "QueueLock"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// Config parameterizes a machine.
type Config struct {
	Protocol Protocol
	// Cores is the core count; it must be a perfect square (mesh).
	// Defaults to 64 (8x8, Table 2).
	Cores int
	// BackoffLimit is the number of exponentiations before the back-off
	// ceiling (BackOff-N); 0 means direct LLC spinning.
	BackoffLimit int
	// BackoffBase is the initial back-off interval in cycles.
	BackoffBase uint64
	// CBEntriesPerBank sizes the callback directories (default 4).
	CBEntriesPerBank int
	// WakePolicy selects the write_CB1 policy.
	WakePolicy core.WakePolicy
	// CBEvict selects the callback directory replacement policy.
	CBEvict core.EvictPolicy
	// CBLineGranular switches callback directories to line-granular
	// tags (ablation).
	CBLineGranular bool
	// IdealNoC disables network contention (ablation).
	IdealNoC bool
	// Chaos, when non-nil and active, enables the deterministic
	// fault-injection layer seeded by ChaosSeed (see internal/chaos).
	// Runtime invariant checking is enabled automatically. The spec's
	// CBCapacity/CBEvictLRU overrides take precedence over
	// CBEntriesPerBank/CBEvict.
	Chaos     *chaos.Spec
	ChaosSeed uint64
	// Watchdog, when nonzero, arms the liveness watchdog: a run with no
	// global progress for Watchdog cycles fails with ErrNoProgress.
	Watchdog uint64
	// HeapOnlyKernel selects the single-tier reference event scheduler
	// (sim.NewHeapOnly) instead of the two-tier calendar-wheel kernel.
	// Results are byte-identical either way; the flag exists for the
	// wheel-vs-heap identity tests and benchmark baselines.
	HeapOnlyKernel bool
}

// Default returns the Table 2 configuration for a protocol.
func Default(p Protocol) Config {
	return Config{
		Protocol:         p,
		Cores:            64,
		BackoffLimit:     10,
		BackoffBase:      1,
		CBEntriesPerBank: core.DefaultEntries,
	}
}

// Tile is one mesh node's memory side: the L1 its core issues into plus
// the home controller (directory or LLC bank) for the lines the node
// owns. It is the protocol boundary: New is the only place the machine
// names a protocol, and a new coherence backend is one package whose
// tile implements this interface.
type Tile interface {
	// Deliver receives the node's network messages (noc.Handler).
	Deliver(*memtypes.Message)
	// Port is the L1, the port the node's core issues into.
	Port() memtypes.Port
	// State captures the tile's mutable state, failing on transient
	// protocol state; SetState restores it. The value is opaque to the
	// machine.
	State() (any, error)
	SetState(any)
	// Digest folds the tile's mutable state, transient state included.
	Digest(*digest.Hash)
	// Stats returns the tile's counters.
	Stats() mem.TileStats
	// Parked counts operations blocked at the tile's controller, and
	// ParkedOp reports the line a core is parked on there, if any.
	Parked() int
	ParkedOp(core memtypes.NodeID) (memtypes.Addr, bool)
	// CheckInvariants verifies the tile's cross-layer invariants; final
	// adds the ones that hold only after the machine quiesced.
	CheckInvariants(final bool) error
	// SetObserver installs the tile's event hook (nil disables). It is
	// observational only.
	SetObserver(trace.Hook)
}

// Machine is a runnable simulated CMP.
type Machine struct {
	K     *sim.Kernel
	Mesh  *noc.Mesh
	Store *mem.Store
	Cores []*cpu.Core

	cfg   Config
	tiles []Tile
	// tileKind prefixes the tiles' component digest names ("mesi",
	// "vips").
	tileKind string

	// subs are the subscribers to the machine's event stream. Every
	// component's hook is the machine's emit, installed with the first
	// subscriber and removed with the last.
	//cbvet:ephemeral observational event fan-out; simulated behaviour is byte-identical with or without it
	subs []subscriber

	// cyc is the cycle-accounting accumulator, nil unless AttachCycles
	// was called; it is also one of subs. Like every subscriber it is
	// observational only.
	//cbvet:ephemeral observational accumulator; simulated behaviour is byte-identical with or without it
	cyc *cycles.Accumulator

	// chaos is the fault-injection engine shared by the mesh and banks
	// (nil when disabled); watchdog and checkInv drive the liveness and
	// invariant monitors in RunContext (see robust.go).
	chaos *chaos.Engine
	//cbvet:ephemeral monitor configuration for RunContext, not simulated state; re-applied at wiring
	watchdog uint64
	//cbvet:ephemeral monitor configuration for RunContext, not simulated state; re-applied at wiring
	checkInv bool

	loaded   int
	finished int
}

// ValidateCores reports whether n is a legal simulated core count: a
// positive perfect square no larger than 64 (the machine is a w x w mesh
// and the MESI directory tracks sharers in a 64-bit vector). It is the
// single validation shared by the CLIs, the service API, and New.
func ValidateCores(n int) error {
	if n <= 0 {
		return fmt.Errorf("machine: cores must be positive (got %d)", n)
	}
	if n > 64 {
		return fmt.Errorf("machine: at most 64 cores (got %d): the directory tracks sharers in a 64-bit vector", n)
	}
	w := int(math.Sqrt(float64(n)))
	if w*w != n {
		return fmt.Errorf("machine: %d cores is not a perfect square: the chip is a w x w mesh (try %d or %d)", n, w*w, (w+1)*(w+1))
	}
	return nil
}

// New builds a machine. classify marks thread-private addresses (nil
// means none).
func New(cfg Config, classify func(memtypes.Addr) bool) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 64
	}
	if err := ValidateCores(cfg.Cores); err != nil {
		panic(err.Error())
	}
	if cfg.Chaos.Active() {
		// Structural overrides (capacity squeeze, eviction policy)
		// apply at build time; everything else is drawn per site from
		// the seeded engine.
		if n := cfg.Chaos.CBCapacity; n > 0 {
			cfg.CBEntriesPerBank = n
		}
		if cfg.Chaos.CBEvictLRU {
			cfg.CBEvict = core.EvictLRU
		}
	}
	w := int(math.Sqrt(float64(cfg.Cores)))
	k := sim.New()
	if cfg.HeapOnlyKernel {
		k = sim.NewHeapOnly()
	}
	m := &Machine{
		K:        k,
		Store:    mem.NewStore(),
		cfg:      cfg,
		watchdog: cfg.Watchdog,
	}
	if cfg.Chaos.Active() {
		m.chaos = chaos.NewEngine(*cfg.Chaos, cfg.ChaosSeed)
		m.checkInv = true
	}
	m.Mesh = noc.New(k, w, w, m.chaos, cfg.IdealNoC)
	bankOf := func(a memtypes.Addr) memtypes.NodeID {
		return memtypes.NodeID(uint64(a.Line()) / memtypes.LineBytes % uint64(cfg.Cores))
	}
	coreCfg := cpu.Config{BackoffBase: cfg.BackoffBase, BackoffLimit: cfg.BackoffLimit}
	onDone := func(*cpu.Core) { m.finished++ }
	for n := 0; n < cfg.Cores; n++ {
		id := memtypes.NodeID(n)
		var t Tile
		switch cfg.Protocol {
		case ProtocolMESI, ProtocolQuiesce:
			m.tileKind = "mesi"
			t = mesi.NewTile(k, id, m.Mesh, m.Store, bankOf, cfg.Protocol == ProtocolQuiesce, m.chaos)
		case ProtocolBackoff, ProtocolCallback, ProtocolQueueLock:
			vcfg := vips.Config{
				Mode:             vips.ModeBackoff,
				CBEntriesPerBank: cfg.CBEntriesPerBank,
				CBDirLatency:     1,
				WakePolicy:       cfg.WakePolicy,
				CBEvict:          cfg.CBEvict,
				CBLineGranular:   cfg.CBLineGranular,
			}
			if cfg.Protocol == ProtocolCallback {
				vcfg.Mode = vips.ModeCallback
			}
			if cfg.Protocol == ProtocolQueueLock {
				vcfg.Mode = vips.ModeQueueLock
			}
			m.tileKind = "vips"
			t = vips.NewTile(k, id, m.Mesh, m.Store, cfg.Cores, bankOf, vcfg, m.chaos)
		default:
			panic(fmt.Sprintf("machine: unknown protocol %d", cfg.Protocol))
		}
		m.Mesh.Attach(id, t)
		m.tiles = append(m.tiles, t)
		m.Cores = append(m.Cores, cpu.New(k, id, t.Port(), coreCfg, classify, onDone))
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// subscriber is one consumer of the machine's event stream. Trace sinks
// see only the traced kinds; the cycle accumulator (all) sees every
// event.
type subscriber struct {
	sink trace.Sink
	all  bool
}

// emit is the hook every component calls: it fans the event out to the
// subscribers.
func (m *Machine) emit(e trace.Event) {
	traced := e.Kind.Traced()
	for _, s := range m.subs {
		if traced || s.all {
			s.sink.Emit(e)
		}
	}
}

// subscribe replaces the subscriber list. Components get the emit hook
// when the list becomes non-empty and lose it when it empties, so an
// unobserved machine pays only nil checks.
func (m *Machine) subscribe(subs []subscriber) {
	was, on := len(m.subs) > 0, len(subs) > 0
	m.subs = subs
	if was == on {
		return
	}
	observed := []interface{ SetObserver(trace.Hook) }{m.Mesh}
	for _, c := range m.Cores {
		observed = append(observed, c)
	}
	for _, t := range m.tiles {
		observed = append(observed, t)
	}
	for _, o := range observed {
		if on {
			o.SetObserver(m.emit)
		} else {
			o.SetObserver(nil)
		}
	}
}

// AttachTrace streams the machine's traced events into sink: network
// send/deliver, callback-directory activity, core sync phases and spin
// waits, and monitor arm/wake. It may be called several times — each
// sink sees the full stream (e.g. a ring buffer for debugging plus a
// Chrome trace writer plus a metrics collector).
func (m *Machine) AttachTrace(sink trace.Sink) {
	m.subscribe(append(m.subs, subscriber{sink: sink}))
}

// AttachCycles subscribes a cycle-accounting accumulator to every event,
// replacing any previous one; nil detaches. Observational only — the
// purity contract of AttachTrace applies identically.
func (m *Machine) AttachCycles(a *cycles.Accumulator) {
	var subs []subscriber
	for _, s := range m.subs {
		if !s.all {
			subs = append(subs, s)
		}
	}
	if a != nil {
		subs = append(subs, subscriber{sink: a, all: true})
	}
	m.cyc = a
	m.subscribe(subs)
}

// DetachTrace drops every subscriber, trace sinks and the cycle
// accumulator alike, and uninstalls the component hooks, so the machine
// pays no observer overhead and never emits into a stale sink: replay
// detaches at each window's end, and Restore detaches for a pooled
// machine's next run.
func (m *Machine) DetachTrace() {
	m.cyc = nil
	m.subscribe(nil)
}

// cycleHorizon is the horizon cycle stacks are charged to: the cycle the
// last core retired its program, or the current kernel time if the run
// was stopped early (or no core has finished).
func (m *Machine) cycleHorizon() uint64 {
	var h uint64
	done := 0
	for _, c := range m.Cores {
		if c.Done() {
			done++
			if at := c.Stats().DoneAt; at > h {
				h = at
			}
		}
	}
	if done < len(m.Cores) || h == 0 {
		return m.K.Now()
	}
	return h
}

// ObserveMetrics folds a finished (or stopped) run's end-of-run samples
// into sm: per-link NoC utilization over the cycles simulated, plus the
// run counter. Event-level histograms (sync latency, spins, callback
// wakes) are fed live by attaching a trace.MetricsCollector.
func (m *Machine) ObserveMetrics(sm *obs.SimMetrics) {
	if cycles := m.K.Now(); cycles > 0 {
		m.Mesh.VisitLinkBusy(func(_ memtypes.NodeID, busy uint64) {
			sm.LinkUtil.Observe(float64(busy) / float64(cycles))
		})
	}
	if m.cyc != nil {
		snap := m.cyc.Snapshot(m.cycleHorizon())
		proto := m.cfg.Protocol.String()
		for cat, total := range snap.Totals() {
			if total > 0 {
				sm.AddCycles(proto, cycles.Category(cat).String(), total)
			}
		}
	}
	sm.Runs.Inc()
}

// Load assigns a program to core n with initial register values, starting
// at cycle 0. Registers are applied in sorted order so the core's
// register-write sequence is identical run to run.
func (m *Machine) Load(n int, prog *isa.Program, regs map[isa.Reg]uint64) {
	keys := make([]isa.Reg, 0, len(regs))
	//cbvet:unordered keys are sorted before use
	for r := range regs {
		keys = append(keys, r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, r := range keys {
		m.Cores[n].SetReg(r, regs[r])
	}
	m.Cores[n].Run(prog, 0)
	m.loaded++
}

// Run simulates until every loaded core finishes, or the cycle limit is
// hit (an error: usually a synchronization deadlock, with a diagnosis of
// where every unfinished core is stuck).
func (m *Machine) Run(limit uint64) error {
	return m.RunContext(nil, limit)
}

// ctxPollMask amortizes context polling during RunContext: the Done
// channel is sampled once every ctxPollMask+1 kernel events (~30 us of
// wall time on the allocation-free hot path), keeping cancellation
// latency negligible without putting a select on the per-event path.
const ctxPollMask = 1023

// RunContext is Run with cooperative cancellation: ctx is polled between
// kernel events, and a canceled run stops within ~1k events and fails
// with an error matching both ErrCanceled and ctx.Err(). A nil ctx
// behaves exactly like Run. When the watchdog is armed, a run with no
// global progress for the watchdog window fails with a *NoProgressError
// (matching ErrNoProgress) carrying a per-core dump; when invariant
// checks are enabled (always under chaos), a violated invariant fails
// with an *InvariantError (matching ErrInvariant). Any stop leaves the
// machine in a consistent (if unfinished) state: Stats and Diagnose
// remain usable.
func (m *Machine) RunContext(ctx context.Context, limit uint64) error {
	if m.loaded == 0 {
		return fmt.Errorf("machine: no programs loaded")
	}
	cond := func() bool { return m.finished == m.loaded }
	var cancelErr, stopErr error
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return canceledError{err}
		}
		if done := ctx.Done(); done != nil {
			finished := cond
			var n uint
			cond = func() bool {
				if finished() {
					return true
				}
				if n++; n&ctxPollMask == 0 {
					select {
					case <-done:
						cancelErr = canceledError{ctx.Err()}
						return true
					default:
					}
				}
				return false
			}
		}
	}
	if m.watchdog > 0 || m.checkInv {
		inner := cond
		window := m.watchdog
		var n uint
		var lastProgress, lastAdvance uint64
		first := true
		cond = func() bool {
			if inner() {
				return true
			}
			if n++; n&wdPollMask != 0 {
				return false
			}
			if m.checkInv {
				if err := m.CheckInvariants(false); err != nil {
					stopErr = err
					return true
				}
			}
			if window > 0 {
				if cur := m.progress(); first || cur != lastProgress {
					first = false
					lastProgress = cur
					lastAdvance = m.K.Now()
				} else if m.K.Now()-lastAdvance >= window {
					stopErr = m.noProgressError(window)
					return true
				}
			}
			return false
		}
	}
	err := m.K.RunUntil(limit, cond)
	if cancelErr != nil {
		return cancelErr
	}
	if stopErr != nil {
		return stopErr
	}
	if err != nil {
		return fmt.Errorf("machine: %d/%d cores finished at cycle %d: %w\n%s",
			m.finished, m.loaded, m.K.Now(), err, m.Diagnose())
	}
	return nil
}

// Diagnose reports where every unfinished core is stuck and what is
// parked in the callback directories — the first thing to read when a
// run deadlocks.
func (m *Machine) Diagnose() string {
	var b strings.Builder
	for i, c := range m.Cores {
		if c.Done() {
			continue
		}
		in := c.CurrentInstr()
		if in == nil {
			fmt.Fprintf(&b, "  core %2d: no program\n", i)
			continue
		}
		fmt.Fprintf(&b, "  core %2d: pc=%d  %s\n", i, c.PC(), in)
	}
	for i, t := range m.tiles {
		if n := t.Parked(); n > 0 {
			fmt.Fprintf(&b, "  bank %2d: %d operations parked in the callback directory\n", i, n)
		}
	}
	if b.Len() == 0 {
		return "  (all cores report done; events still pending)"
	}
	return b.String()
}
