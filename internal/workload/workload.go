// Package workload generates the synthetic benchmark programs that stand
// in for the paper's Splash-2 and PARSEC applications (Section 5.1).
//
// The paper's figures are driven by each application's synchronization
// shape — how often it crosses barriers, how many lock acquisitions it
// performs and at what contention, how long critical sections are — laid
// over data-race-free compute and sharing phases. Each Profile captures
// that shape for one application; Generate lowers it to per-thread
// micro-op programs using the synchronization algorithms of
// internal/synclib in the flavour matching the protocol under test.
// Absolute cycle counts differ from the authors' full-system runs, but
// protocol orderings and ratios are produced by the same mechanisms.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/isa/verify"
	"repro/internal/memtypes"
	"repro/internal/synclib"
)

// SyncStyle selects the paper's two synchronization configurations
// (Section 5.2): naive (T&T&S lock + SR barrier) or scalable (CLH lock +
// TreeSR barrier).
type SyncStyle uint8

const (
	// StyleScalable uses CLH locks and the tree sense-reversing
	// barrier.
	StyleScalable SyncStyle = iota
	// StyleNaive uses T&T&S locks and the centralized sense-reversing
	// barrier (counter decremented under a T&T&S lock, Splash-2 POSIX
	// style).
	StyleNaive
)

func (s SyncStyle) String() string {
	if s == StyleNaive {
		return "naive"
	}
	return "scalable"
}

// Profile describes one application's synchronization and sharing shape.
type Profile struct {
	Name  string
	Suite string // "splash2" or "parsec"

	// Phases is the number of barrier-separated phases.
	Phases int
	// ComputePerPhase is the per-thread local work per phase, in
	// cycles.
	ComputePerPhase uint64
	// DataLines is the number of shared lines each thread touches per
	// phase (its own partition plus neighbour reads).
	DataLines int
	// WritePerMille is the fraction of data accesses that are stores,
	// in per-mille.
	WritePerMille int
	// LocksPerPhase is the number of critical sections each thread
	// enters per phase.
	LocksPerPhase int
	// NumLocks is the number of distinct locks; fewer locks mean more
	// contention.
	NumLocks int
	// CSCompute is the local work inside a critical section, in
	// cycles.
	CSCompute uint64
	// CSDataLines is the number of shared lines touched inside each
	// critical section (protected data).
	CSDataLines int
	// SignalWaitPairs is the number of producer/consumer signal-wait
	// pairs active per phase (pipeline applications); pair k is
	// produced by thread 2k and consumed by thread 2k+1.
	SignalWaitPairs int
}

// LockKind selects the lock algorithm.
type LockKind uint8

const (
	// LockCLH is the scalable CLH queue lock.
	LockCLH LockKind = iota
	// LockTTAS is the naive Test-and-Test&Set lock.
	LockTTAS
)

func (k LockKind) String() string {
	if k == LockTTAS {
		return "T&T&S"
	}
	return "CLH"
}

// BarrierKind selects the barrier algorithm.
type BarrierKind uint8

const (
	// BarrierTree is the scalable tree sense-reversing barrier.
	BarrierTree BarrierKind = iota
	// BarrierSR is the centralized sense-reversing barrier with its
	// counter decremented under a T&T&S lock (Splash-2 POSIX style).
	BarrierSR
)

func (k BarrierKind) String() string {
	if k == BarrierSR {
		return "SR"
	}
	return "TreeSR"
}

// Kinds returns the style's lock and barrier algorithms.
func (s SyncStyle) Kinds() (LockKind, BarrierKind) {
	if s == StyleNaive {
		return LockTTAS, BarrierSR
	}
	return LockCLH, BarrierTree
}

// Generated is a ready-to-load parallel program.
type Generated struct {
	Profile  Profile
	Flavor   synclib.Flavor
	Layout   *synclib.Layout
	Programs []*isa.Program
	// Observe lists the data addresses whose final values are the
	// workload's observable outcome — what chaos sweeps assert
	// fault-invariant. nil means the whole shared span is data;
	// workloads whose shared span contains synchronization internals
	// with order-dependent residue (e.g. CLH queue-node pointers) must
	// list their data addresses explicitly (empty = outcome is fully
	// captured by Stats).
	Observe []memtypes.Addr
}

// Generate lowers profile to per-thread programs for cores threads using
// the given synchronization style and protocol flavour.
func Generate(p Profile, cores int, style SyncStyle, f synclib.Flavor) *Generated {
	lk, bk := style.Kinds()
	return GenerateCustom(p, cores, lk, bk, f)
}

// GenerateCustom lowers profile with an explicit lock/barrier algorithm
// combination (Figure 23 mixes T&T&S locks with the TreeSR barrier).
func GenerateCustom(p Profile, cores int, lk LockKind, bk BarrierKind, f synclib.Flavor) *Generated {
	if cores < 2 {
		panic("workload: need at least 2 cores")
	}
	lay := synclib.NewLayout()

	// Synchronization structures.
	var barrier synclib.Barrier
	mkLock := func() synclib.Lock { return synclib.NewCLHLock(lay, cores) }
	if lk == LockTTAS {
		mkLock = func() synclib.Lock { return synclib.NewTTASLock(lay) }
	}
	if bk == BarrierSR {
		barrier = synclib.NewSRBarrier(lay, cores, synclib.NewTTASLock(lay))
	} else {
		barrier = synclib.NewTreeBarrier(lay, cores)
	}
	locks := make([]synclib.Lock, 0, p.NumLocks)
	for i := 0; i < max(p.NumLocks, 1); i++ {
		locks = append(locks, mkLock())
	}

	// Data: each thread gets a private partition (the dominant case in
	// the paper's applications — VIPS-M's page classification excludes
	// private data from coherence) plus a shared boundary region that
	// its neighbour reads across barriers.
	partBytes := max(p.DataLines, 1) * memtypes.LineBytes
	priv := lay.PrivateRange(cores * partBytes)
	boundaryLines := max(p.DataLines/3, 1)
	boundaryBytes := boundaryLines * memtypes.LineBytes
	boundary := lay.SharedRange(cores * boundaryBytes)
	csData := lay.SharedRange(max(p.CSDataLines, 1) * memtypes.LineBytes * max(p.NumLocks, 1))

	// Signal/wait channels.
	var channels []*synclib.SignalWait
	for i := 0; i < p.SignalWaitPairs; i++ {
		channels = append(channels, synclib.NewSignalWait(lay))
	}

	// One builder and one random source serve every thread: the builder
	// is reset and the source reseeded per thread, so buffers grow once
	// per workload and each program is allocated once, at its exact size.
	g := &Generated{Profile: p, Flavor: f, Layout: lay, Programs: make([]*isa.Program, cores)}
	td := threadData{priv: priv, boundary: boundary, partBytes: partBytes,
		boundaryLines: boundaryLines, boundaryBytes: boundaryBytes}
	b := isa.NewBuilder()
	rng := rand.New(rand.NewSource(0))
	for tid := range g.Programs {
		b.Reset()
		rng.Seed(int64(tid)*1000003 + int64(len(p.Name)))
		buildThread(b, rng, p, cores, tid, f, barrier, locks, channels, td, csData)
		g.Programs[tid] = b.MustBuild()
	}
	return g
}

// Footprint declares every address the generated programs may touch:
// the layout's shared and private spans, with an indirection allowance
// when a pointer-linked structure (the CLH lock) was allocated.
func (g *Generated) Footprint() *verify.Footprint {
	fp := &verify.Footprint{AllowIndirect: g.Layout.UsesIndirection()}
	if base, end := g.Layout.SharedSpan(); end > base {
		fp.AddRange(base, uint64(end-base))
	}
	if base, end := g.Layout.PrivateSpan(); end > base {
		fp.AddRange(base, uint64(end-base))
	}
	return fp
}

// Verify statically checks every generated thread program against the
// layout's footprint (trusted mode: the synclib spin loops are
// admitted). Generated workloads must always verify clean; a finding
// here is a generator bug.
func (g *Generated) Verify() *verify.SetReport {
	return verify.Threads(g.Programs, verify.Options{
		Footprint: g.Footprint(),
		Mode:      verify.ModeTrusted,
	})
}

// Workload register conventions: R0-R7 (synclib owns R9-R15).
const (
	regPhase = isa.R0 // remaining phases
	regIter  = isa.R1 // inner loop counter
	regAddr  = isa.R2 // data address
	regVal   = isa.R3 // data value
	regCS    = isa.R4 // critical-section counter
)

// threadData locates a thread's private partition and shared boundary.
type threadData struct {
	priv          memtypes.Addr
	boundary      memtypes.Addr
	partBytes     int
	boundaryLines int
	boundaryBytes int
}

// buildThread emits thread tid's program into b, drawing its jitter and
// access mix from rng.
func buildThread(b *isa.Builder, rng *rand.Rand, p Profile, cores, tid int, f synclib.Flavor,
	barrier synclib.Barrier, locks []synclib.Lock, channels []*synclib.SignalWait,
	td threadData, csData memtypes.Addr) {

	barrier.EmitInit(b, f, tid)
	for _, l := range locks {
		l.EmitInit(b, f, tid)
	}

	myPart := uint64(td.priv) + uint64(tid*td.partBytes)
	myBoundary := uint64(td.boundary) + uint64(tid*td.boundaryBytes)
	neighborBoundary := uint64(td.boundary) + uint64(((tid+1)%cores)*td.boundaryBytes)

	for phase := 0; phase < max(p.Phases, 1); phase++ {
		// Local compute, jittered per thread/phase so threads arrive
		// at synchronization points at staggered times (as real
		// applications do).
		compute := p.ComputePerPhase
		if compute > 0 {
			jitter := uint64(rng.Int63n(int64(compute/6 + 1)))
			b.Compute(compute + jitter)
		}

		// DRF data phase: work on the private partition, publish to my
		// boundary lines, and read the neighbour's previous-phase
		// boundary output.
		for i := 0; i < p.DataLines; i++ {
			off := uint64(i * memtypes.LineBytes)
			b.Imm(regAddr, myPart+off)
			if rng.Intn(1000) < p.WritePerMille {
				b.Imm(regVal, uint64(phase+1))
				b.St(regAddr, 0, regVal)
			} else {
				b.Ld(regVal, regAddr, 0)
			}
			if i%3 == 0 {
				boff := uint64(int(i/3) % td.boundaryLines * memtypes.LineBytes)
				b.Imm(regVal, uint64(phase+1))
				b.Imm(regAddr, myBoundary+boff)
				b.St(regAddr, 0, regVal)
				b.Imm(regAddr, neighborBoundary+boff)
				b.Ld(regVal, regAddr, 0)
			}
		}

		// Critical sections.
		for cs := 0; cs < p.LocksPerPhase; cs++ {
			li := 0
			if len(locks) > 1 {
				li = rng.Intn(len(locks))
			}
			lock := locks[li]
			lock.EmitAcquire(b, f, tid)
			if p.CSCompute > 0 {
				b.Compute(p.CSCompute)
			}
			for d := 0; d < p.CSDataLines; d++ {
				addr := uint64(csData) + uint64((li*max(p.CSDataLines, 1)+d)*memtypes.LineBytes)
				b.Imm(regAddr, addr)
				b.Ld(regVal, regAddr, 0)
				b.Addi(regVal, regVal, 1)
				b.St(regAddr, 0, regVal)
			}
			lock.EmitRelease(b, f, tid)
		}

		// Pipeline signal/wait pairs.
		for k, ch := range channels {
			switch tid {
			case 2 * k:
				ch.EmitSignal(b, f)
			case 2*k + 1:
				ch.EmitWait(b, f)
			}
		}

		barrier.EmitWait(b, f, tid)
	}
	b.Done()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FlavorFor maps a protocol configuration to the synclib flavour its
// programs must be generated with.
func FlavorFor(invalidation, callback, cbOne bool) synclib.Flavor {
	switch {
	case invalidation:
		return synclib.FlavorMESI
	case callback && cbOne:
		return synclib.FlavorCBOne
	case callback:
		return synclib.FlavorCBAll
	default:
		return synclib.FlavorBackoff
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
