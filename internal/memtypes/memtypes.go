// Package memtypes defines the address geometry, memory operation set, and
// inter-controller message representation shared by every protocol in the
// simulator.
//
// The operation set mirrors Table 1 of the paper: besides ordinary DRF
// loads and stores there are racy "through" operations that bypass the L1
// and meet at the LLC, the callback read (ld_cb), the write variants that
// service zero, one, or all callbacks (st_cb0, st_cb1, st_through/st_cbA),
// read-modify-writes composed from those parts, and the self-invalidation
// and self-downgrade fences.
package memtypes

import "fmt"

// Geometry of the memory system (Table 2 of the paper).
const (
	LineBytes    = 64 // cache line size
	WordBytes    = 8  // word size; callback tags are word-granular
	WordsPerLine = LineBytes / WordBytes
	PageBytes    = 4096
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line returns the address of the first byte of the cache line holding a.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// Word returns the address of the first byte of the word holding a.
func (a Addr) Word() Addr { return a &^ (WordBytes - 1) }

// WordIndex returns the index of a's word within its cache line.
func (a Addr) WordIndex() int { return int(a%LineBytes) / WordBytes }

// Offset returns the byte offset of a within its cache line.
func (a Addr) Offset() int { return int(a % LineBytes) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// NodeID identifies a tile (core + L1 + LLC bank + router) in the CMP.
type NodeID int

// Line is the data payload of one cache line.
type Line [WordsPerLine]uint64

// OpKind enumerates the memory operations a core can issue.
type OpKind uint8

const (
	// OpRead and OpWrite are ordinary data-race-free accesses. They are
	// cached in the L1 under every protocol.
	OpRead OpKind = iota
	OpWrite

	// OpReadThrough (ld_through) bypasses the L1 and reads the current
	// LLC value. Under a callback protocol it also consumes the F/E bit
	// if one is available but never blocks: it is the non-blocking
	// callback used as the spin-loop guard (Section 3.3).
	OpReadThrough

	// OpReadCB (ld_cb) bypasses the L1 and blocks in the callback
	// directory until its F/E bit is full.
	OpReadCB

	// OpWriteThrough (st_through / st_cbA) writes the LLC immediately
	// and services all waiting callbacks.
	OpWriteThrough

	// OpWriteCB1 (st_cb1) writes the LLC and services exactly one
	// waiting callback, switching the entry to callback-one mode.
	OpWriteCB1

	// OpWriteCB0 (st_cb0) writes the LLC and services no callbacks,
	// also in callback-one mode. Used by the write half of successful
	// lock-acquire RMWs (Section 2.5).
	OpWriteCB0

	// OpRMW is an atomic read-modify-write performed at the LLC. Its
	// load half is OpReadThrough or OpReadCB and its store half is one
	// of the three write variants (see RMW fields on Request).
	OpRMW

	// OpFenceSelfInvl self-invalidates the shared contents of the L1
	// (acquire fence). It first self-downgrades transient dirty data so
	// it also enforces W->self-invl (footnote 7 of the paper).
	OpFenceSelfInvl

	// OpFenceSelfDown self-downgrades (writes through) the dirty
	// contents of the L1 (release fence).
	OpFenceSelfDown
)

var opKindNames = [...]string{
	OpRead:          "ld",
	OpWrite:         "st",
	OpReadThrough:   "ld_through",
	OpReadCB:        "ld_cb",
	OpWriteThrough:  "st_through",
	OpWriteCB1:      "st_cb1",
	OpWriteCB0:      "st_cb0",
	OpRMW:           "rmw",
	OpFenceSelfInvl: "self_invl",
	OpFenceSelfDown: "self_down",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// IsRacy reports whether the operation is one of the conflicting
// (synchronization) accesses that bypass the L1.
func (k OpKind) IsRacy() bool {
	switch k {
	case OpReadThrough, OpReadCB, OpWriteThrough, OpWriteCB1, OpWriteCB0, OpRMW:
		return true
	}
	return false
}

// IsFence reports whether the operation is a self-invalidation or
// self-downgrade fence.
func (k OpKind) IsFence() bool {
	return k == OpFenceSelfInvl || k == OpFenceSelfDown
}

// RMWOp enumerates the atomic primitives used by the synchronization
// algorithms of Section 3.4.
type RMWOp uint8

const (
	// RMWTestAndSet writes New if the current value equals Expect and
	// returns the old value (t&s: Expect=0, New=1).
	RMWTestAndSet RMWOp = iota
	// RMWSwap unconditionally writes New and returns the old value
	// (fetch&store, used by the CLH lock).
	RMWSwap
	// RMWFetchAdd adds Delta and returns the old value (fetch&inc,
	// fetch&dec).
	RMWFetchAdd
	// RMWTestAndDec decrements if the current value is non-zero and
	// returns the old value (t&d, used by signal/wait).
	RMWTestAndDec
	// RMWCompareAndSwap writes New if the current value equals Expect
	// and returns the old value.
	RMWCompareAndSwap
)

var rmwOpNames = [...]string{
	RMWTestAndSet:     "t&s",
	RMWSwap:           "f&s",
	RMWFetchAdd:       "f&a",
	RMWTestAndDec:     "t&d",
	RMWCompareAndSwap: "cas",
}

func (o RMWOp) String() string {
	if int(o) < len(rmwOpNames) {
		return rmwOpNames[o]
	}
	return fmt.Sprintf("RMWOp(%d)", uint8(o))
}

// Apply computes the RMW result for op on old with the given operands.
// It returns the new value and whether the write half takes place.
func (o RMWOp) Apply(old, expect, arg uint64) (newVal uint64, writes bool) {
	switch o {
	case RMWTestAndSet:
		if old == expect {
			return arg, true
		}
		return old, false
	case RMWSwap:
		return arg, true
	case RMWFetchAdd:
		return old + arg, true
	case RMWTestAndDec:
		if old != 0 {
			return old - 1, true
		}
		return old, false
	case RMWCompareAndSwap:
		if old == expect {
			return arg, true
		}
		return old, false
	}
	panic(fmt.Sprintf("memtypes: unknown RMWOp %d", o))
}

// CBWrite classifies the store half of a racy write or RMW by how many
// callbacks it services.
type CBWrite uint8

const (
	// CBAll services every waiting callback (st_through / st_cbA).
	CBAll CBWrite = iota
	// CBOne services exactly one waiting callback (st_cb1).
	CBOne
	// CBZero services no callbacks (st_cb0).
	CBZero
)

func (w CBWrite) String() string {
	switch w {
	case CBAll:
		return "cbA"
	case CBOne:
		return "cb1"
	case CBZero:
		return "cb0"
	}
	return fmt.Sprintf("CBWrite(%d)", uint8(w))
}

// StoreKind returns the OpKind of a standalone store with these callback
// semantics.
func (w CBWrite) StoreKind() OpKind {
	switch w {
	case CBAll:
		return OpWriteThrough
	case CBOne:
		return OpWriteCB1
	case CBZero:
		return OpWriteCB0
	}
	panic(fmt.Sprintf("memtypes: unknown CBWrite %d", w))
}

// Request is a memory operation issued by a core to its L1 port.
type Request struct {
	Kind OpKind
	Addr Addr
	Core NodeID

	// Value is the store data for writes, or unused for reads.
	Value uint64

	// RMW describes the atomic for OpRMW requests.
	RMW     RMWOp
	RMWLdCB bool    // load half is ld_cb rather than ld_through
	RMWSt   CBWrite // store half semantics
	Expect  uint64  // expected value for t&s / cas
	Arg     uint64  // new value / addend

	// Private marks the address as thread-private data, which the
	// self-invalidation protocols exclude from coherence (never
	// self-invalidated or downgraded eagerly).
	Private bool

	// Sync marks a request issued inside a synchronization phase
	// (between SyncBegin/SyncEnd markers), so LLC accesses can be
	// attributed to synchronization as in Figures 1 and 20.
	Sync bool

	// SyncKind is the innermost synchronization phase kind (an
	// isa.SyncKind value; 0 when not synchronizing), for per-algorithm
	// LLC-access attribution.
	SyncKind uint8

	// Seq is the issuing core's operation sequence number. A core reuses
	// one Request for all its operations, so the pointer alone cannot
	// tell two of them apart: controllers copy Seq onto the messages of
	// a transaction, and the L1 checks a response's Seq against its
	// pending request to catch a reply meant for an earlier operation.
	Seq uint64
}

// SyncPhase returns the synchronization-phase kind an LLC access made on
// behalf of r is attributed to: 0 when r is nil or not synchronizing.
func (r *Request) SyncPhase() uint8 {
	if r == nil || !r.Sync {
		return 0
	}
	return r.SyncKind
}

// NumSyncKinds mirrors isa.NumSyncKinds for counter array sizing without
// an import cycle.
const NumSyncKinds = 8

// Response carries the completion of a Request back to the core.
type Response struct {
	// Value is the loaded value (for reads and RMWs, the old value).
	Value uint64
	// Hit reports whether the access hit in the L1 (DRF accesses only).
	Hit bool
	// Stale reports that a callback was answered by a directory
	// eviction rather than a write, so Value is simply the current
	// value (Section 2.3.1).
	Stale bool
}

// Completer receives the completion of a memory operation. Cores
// implement it on themselves, so an access allocates no callback.
type Completer interface {
	Complete(Response)
}

// CompleterFunc adapts a plain function to a Completer, for tests and
// tools that drive a Port directly. A simulated core implements
// Completer itself instead, since a func value per access would
// allocate.
type CompleterFunc func(Response)

// Complete calls f(resp).
func (f CompleterFunc) Complete(resp Response) { f(resp) }

// Port is the interface cores use to access the memory system. Exactly one
// outstanding request per core is permitted (in-order blocking cores).
type Port interface {
	// Access starts req and calls done.Complete exactly once on
	// completion. The port may keep req until then, so the caller must
	// not modify it while the operation is in flight.
	Access(req *Request, done Completer)
}
