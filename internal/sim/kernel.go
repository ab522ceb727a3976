// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every simulator component (cores, cache controllers, network routers)
// is an Actor, registered once with the kernel at construction: Register
// returns the ActorID that events address it by. An event is 32 bytes of
// plain data with no pointers — {when, seq, arg, actor, msg} — where msg
// is a handle into the kernel's message table (0 for no message). A
// message is entered in the table the first time it is scheduled and
// keeps its handle in Message.Handle for the rest of its pooled life, so
// the table stays as large as the mesh's message pool; the handle is
// resolved back to the *memtypes.Message just before Act. Events that
// share a cycle fire in scheduling order, which makes every run
// bit-reproducible: the queue is ordered by (time, sequence number).
//
// The scheduler is two-tiered. Near-future events — the overwhelmingly
// common case: NoC hops, cache latencies, spin retries, known next-wakes
// of parked cores — go to a fixed-size calendar wheel with one slot per
// cycle, giving O(1) schedule and pop. The wheel's events live in one
// kernel-owned arena: each slot is a {head, tail} FIFO list through a
// parallel link array, in sequence order, and fired entries go onto a
// LIFO free list, so the memory the wheel touches stays the size of the
// pending-event count however far the clock sweeps. Far-future events
// overflow into a hand-rolled typed binary min-heap of the same 32-byte
// values (container/heap would box every event into an `any`, costing an
// allocation and an indirect call per event) and migrate onto the wheel
// as the clock approaches them, by an ordered insert into their slot's
// list. Advancing the clock scans the wheel's occupancy bitmap, so a
// fully quiescent phase — every core parked with a known wake cycle —
// costs one bitmap jump to the next occupied slot instead of per-cycle
// scans. Neither tier holds a pointer, so the garbage collector never
// scans them, and Schedule/Step perform zero heap allocations in steady
// state.
package sim

import (
	"errors"
	"math/bits"

	"repro/internal/memtypes"
)

// ErrLimit is returned by Run when the cycle limit is reached with events
// still pending. It usually indicates a deadlock or an undersized limit.
var ErrLimit = errors.New("sim: cycle limit reached with pending events")

// Actor is a pre-bound event target: a long-lived object (a core, a
// controller, the mesh) that many events fire against. It is registered
// with the kernel once, and events carry its ActorID, a message handle
// and a small scalar, so scheduling allocates nothing.
type Actor interface {
	// Act fires the event. msg and arg are the values passed to
	// At/Schedule, verbatim; msg may be nil.
	Act(msg *memtypes.Message, arg uint64)
}

// ActorID names an actor registered with a kernel (see Register).
type ActorID uint32

// event is one pending event: plain data, no pointers. msg is a handle
// into the kernel's message table; 0 means no message.
type event struct {
	when  uint64
	seq   uint64
	arg   uint64
	actor ActorID
	msg   uint32
}

// before orders events by (time, sequence number).
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Wheel geometry: one slot per cycle over a wheelSlots-cycle horizon.
// Because every wheel event satisfies now <= when < now+wheelSlots, two
// distinct times can never map to the same slot, so each slot holds the
// events of exactly one cycle, in sequence order.
const (
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// wheelSlot is one cycle's FIFO list of arena entries in sequence order;
// 0 marks the end of a list (arena entry 0 is never used).
type wheelSlot struct {
	head, tail int32
}

// Initial capacities. The arena grows to the peak number of pending wheel
// events and the message table to the number of distinct messages ever
// scheduled; both keep their backing across SetState, so steady-state
// scheduling never reallocates. The actor table fits a 64-core machine's
// three actors per tile plus the mesh without growing.
const (
	initialArenaCap = 256
	initialHeapCap  = 4096
	initialMsgCap   = 64
	initialActorCap = 256
)

// Telemetry counts scheduler-internal activity, for attributing kernel
// speedups (cmd/benchsnap records it next to the benchmark numbers). The
// counters never feed back into simulation results: machine.Stats stays
// byte-identical across kernel variants.
type Telemetry struct {
	WheelPushes uint64 // events scheduled onto the wheel (incl. migrations)
	HeapPushes  uint64 // events scheduled into the overflow heap
	Migrations  uint64 // heap events migrated onto the wheel
	Skips       uint64 // pops that advanced the clock by more than one cycle
	MaxPending  uint64 // high-water mark of the pending-event count
}

// Kernel is a discrete-event simulator clock and event queue.
// The zero value is ready to use at cycle 0.
type Kernel struct {
	slots []wheelSlot // calendar wheel (nil until first use of a zero Kernel)
	occ   []uint64    // occupancy bitmap, one bit per slot
	// arena holds the wheel's events; link[i] is the entry after i in
	// its slot's list, or in the free list once i has fired. Entry 0 is
	// the list terminator.
	arena  []event
	link   []int32
	free   int32   // head of the LIFO free list of fired entries, 0 if empty
	heap   []event // overflow tier for events >= wheelSlots cycles out
	nwheel int     // live events on the wheel

	// actors and msgs resolve an event's actor ID and message handle.
	// Both are append-only: an ID or handle, once issued, names the same
	// object for the kernel's lifetime. msgs[0] is nil (no message).
	//cbvet:ephemeral wiring: actors register at construction and are re-registered by the machine that owns them, not restored
	actors []Actor
	//cbvet:ephemeral handle table of pooled messages; a quiescent kernel schedules none, and the handles stay valid across SetState
	msgs []*memtypes.Message

	now  uint64
	seq  uint64
	nrun uint64

	// heapOnly disables the wheel entirely (NewHeapOnly): the reference
	// single-tier scheduler for byte-identity tests and benchmarks.
	heapOnly bool

	// cached memoizes the earliest pending event between the limit check
	// and the pop that fires it, so Run/RunUntil scan the wheel once per
	// event. cachedSlot < 0 means the event is the heap top.
	cached bool
	//cbvet:ephemeral memo guarded by cached, which SetState clears; rebuilt from the wheel/heap by the next locate
	cachedSlot int
	//cbvet:ephemeral memo guarded by cached, which SetState clears; rebuilt from the wheel/heap by the next locate
	cachedWhen uint64

	tele Telemetry
}

// New returns a kernel at cycle zero with pre-grown event queues.
func New() *Kernel {
	k := newKernel()
	k.initWheel()
	return k
}

// NewHeapOnly returns a kernel that schedules every event through the
// overflow heap, bypassing the calendar wheel — the single-tier reference
// scheduler. Results are byte-identical to the two-tier kernel (same
// (time, sequence) contract); only the constant factor differs. It exists
// for the wheel-vs-heap identity tests and benchmark baselines.
func NewHeapOnly() *Kernel {
	k := newKernel()
	k.heapOnly = true
	return k
}

// newKernel returns a kernel at cycle zero with pre-grown tables and heap.
func newKernel() *Kernel {
	return &Kernel{
		heap:   make([]event, 0, initialHeapCap),
		actors: make([]Actor, 0, initialActorCap),
		msgs:   make([]*memtypes.Message, 1, initialMsgCap),
	}
}

// initWheel allocates the wheel's slots, bitmap and pre-grown arena.
func (k *Kernel) initWheel() {
	k.slots = make([]wheelSlot, wheelSlots)
	k.occ = make([]uint64, wheelWords)
	k.arena = make([]event, 1, initialArenaCap)
	k.link = make([]int32, 1, initialArenaCap)
}

// Register enters a in the kernel's actor table and returns the ID that
// Schedule and At address it by. Components register themselves once, at
// construction; IDs are never reused.
func (k *Kernel) Register(a Actor) ActorID {
	if a == nil {
		panic("sim: nil actor")
	}
	if k.msgs == nil {
		k.msgs = make([]*memtypes.Message, 1, initialMsgCap)
	}
	k.actors = append(k.actors, a)
	return ActorID(len(k.actors) - 1)
}

// MessageHandles reports how many distinct messages have been entered in
// the kernel's message table. Messages keep their handle across pool
// reuse, so in a machine it stays at most the mesh pool's size.
func (k *Kernel) MessageHandles() int {
	if len(k.msgs) == 0 {
		return 0
	}
	return len(k.msgs) - 1
}

// Now reports the current simulation cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Executed reports how many events have fired so far.
func (k *Kernel) Executed() uint64 { return k.nrun }

// Pending reports how many events are scheduled but not yet fired.
func (k *Kernel) Pending() int { return k.nwheel + len(k.heap) }

// Telemetry returns the scheduler-internal counters accumulated so far.
func (k *Kernel) Telemetry() Telemetry { return k.tele }

// Schedule runs a's Act(msg, arg) delay cycles from now. A delay of zero
// fires later in the current cycle, after all previously scheduled events
// for this cycle.
//
//cbsim:hotpath
func (k *Kernel) Schedule(delay uint64, a ActorID, msg *memtypes.Message, arg uint64) {
	k.At(k.now+delay, a, msg, arg)
}

// At runs a's Act(msg, arg) at the absolute cycle when. A when earlier
// than Now() is clamped to now: the event fires later in the current
// cycle, after all previously scheduled events, exactly like
// Schedule(0, ...). Protocol layers compute absolute deadlines such as
// "FIFO floor + latency" whose floor may already have passed; the clamp
// makes that well-defined instead of a time-travel bug.
//
//cbsim:hotpath
func (k *Kernel) At(when uint64, a ActorID, msg *memtypes.Message, arg uint64) {
	k.checkActor(a)
	k.push(when, arg, a, k.handle(msg))
}

// handle returns msg's message-table handle, entering msg in the table
// the first time it is scheduled. A pooled message keeps its handle
// across reuse (the pool and Mesh.NewMessage preserve it), so the table
// grows only with the pool.
//
//cbsim:hotpath
func (k *Kernel) handle(msg *memtypes.Message) uint32 {
	if msg == nil {
		return 0
	}
	h := msg.Handle
	if h == 0 {
		h = uint32(len(k.msgs))
		k.msgs = append(k.msgs, msg)
		msg.Handle = h
	}
	k.checkHandle(h, msg)
	return h
}

// push inserts an event, assigning its sequence number, into the wheel
// (near future) or the overflow heap (far future). A wheel event is
// written straight into its arena entry and appended to its slot's list:
// direct pushes take sequence numbers in increasing order, so the tail is
// always the right place.
//
//cbsim:hotpath
func (k *Kernel) push(when, arg uint64, a ActorID, msg uint32) {
	if when < k.now {
		when = k.now // clamp: see At
	}
	seq := k.seq
	k.seq++
	k.cached = false
	if k.heapOnly || when-k.now >= wheelSlots {
		k.pushHeap(event{when: when, seq: seq, arg: arg, actor: a, msg: msg})
		return
	}
	if k.slots == nil {
		k.initWheel()
	}
	i := k.alloc()
	e := &k.arena[i]
	e.when, e.seq, e.arg, e.actor, e.msg = when, seq, arg, a, msg
	k.link[i] = 0
	si := int(when) & wheelMask
	s := &k.slots[si]
	if s.head == 0 {
		s.head = i
		k.occ[si>>6] |= 1 << uint(si&63)
	} else {
		k.link[s.tail] = i
	}
	s.tail = i
	k.notePending()
}

// pushHeap is push's far-future path, kept out of line so the wheel path
// stays small.
//
//go:noinline
//cbsim:hotpath
func (k *Kernel) pushHeap(e event) {
	k.tele.HeapPushes++
	k.heapPush(e)
	k.notePending()
}

// notePending updates the pending-event high-water mark.
//
//cbsim:hotpath
func (k *Kernel) notePending() {
	if p := uint64(k.nwheel + len(k.heap)); p > k.tele.MaxPending {
		k.tele.MaxPending = p
	}
}

// alloc takes an arena entry for a new wheel event, reusing the most
// recently fired one (LIFO keeps the working set hot) or growing the
// arena.
//
//cbsim:hotpath
func (k *Kernel) alloc() int32 {
	k.tele.WheelPushes++
	k.nwheel++
	if i := k.free; i != 0 {
		k.free = k.link[i]
		return i
	}
	k.arena = append(k.arena, event{})
	k.link = append(k.link, 0)
	return int32(len(k.arena) - 1)
}

// wheelInsert adds a migrated heap event to its slot in sequence order:
// it may carry a lower sequence number than events pushed onto the slot
// directly after it was scheduled.
//
//cbsim:hotpath
func (k *Kernel) wheelInsert(e event) {
	i := k.alloc()
	k.arena[i] = e
	si := int(e.when) & wheelMask
	s := &k.slots[si]
	if s.head == 0 {
		k.occ[si>>6] |= 1 << uint(si&63)
	}
	var prev int32
	next := s.head
	for next != 0 && k.arena[next].seq < e.seq {
		prev, next = next, k.link[next]
	}
	k.link[i] = next
	if prev == 0 {
		s.head = i
	} else {
		k.link[prev] = i
	}
	if next == 0 {
		s.tail = i
	}
}

// popSlot unlinks the earliest (lowest-sequence) event of slot si and
// puts its arena entry on the free list, returning the entry. The entry
// keeps its contents until the next alloc reuses it.
//
//cbsim:hotpath
func (k *Kernel) popSlot(si int) int32 {
	s := &k.slots[si]
	i := s.head
	s.head = k.link[i]
	if s.head == 0 {
		s.tail = 0
		k.occ[si>>6] &^= 1 << uint(si&63)
	}
	k.link[i] = k.free
	k.free = i
	k.nwheel--
	return i
}

// nextOccupied returns the occupied slot closest to the current cycle,
// scanning the bitmap circularly from now's slot. The caller must ensure
// the wheel is non-empty. This is the batch-skip fast path: a quiescent
// stretch costs one masked word test plus a trailing-zeros jump per 64
// empty slots, not a per-cycle walk.
//
//cbsim:hotpath
func (k *Kernel) nextOccupied() int {
	start := int(k.now) & wheelMask
	wi := start >> 6
	w := k.occ[wi] &^ (1<<uint(start&63) - 1)
	for {
		if w != 0 {
			return wi<<6 | bits.TrailingZeros64(w)
		}
		wi = (wi + 1) & (wheelWords - 1)
		w = k.occ[wi]
	}
}

// migrate moves heap events that entered the wheel horizon onto the wheel.
// Same-time events pop from the heap in sequence order, and wheelInsert
// orders them against any directly pushed slot-mates, so migration
// preserves the (time, sequence) contract exactly.
//
//cbsim:hotpath
func (k *Kernel) migrate() {
	for len(k.heap) > 0 && k.heap[0].when-k.now < wheelSlots {
		k.tele.Migrations++
		k.wheelInsert(k.heapPop())
	}
}

// locate finds the earliest pending event and memoizes it for the
// following pop. The caller must ensure events are pending.
//
//cbsim:hotpath
func (k *Kernel) locate() {
	if !k.heapOnly {
		k.migrate()
	}
	if k.nwheel > 0 {
		si := k.nextOccupied()
		start := int(k.now) & wheelMask
		k.cachedSlot = si
		k.cachedWhen = k.now + uint64((si-start)&wheelMask)
	} else {
		k.cachedSlot = -1
		k.cachedWhen = k.heap[0].when
	}
	k.cached = true
}

// earliest returns the time of the earliest pending event. The caller
// must ensure events are pending.
//
//cbsim:hotpath
func (k *Kernel) earliest() uint64 {
	if !k.cached {
		k.locate()
	}
	return k.cachedWhen
}

// heapPush sifts an event up the overflow heap.
//
//cbsim:hotpath
func (k *Kernel) heapPush(e event) {
	h := append(k.heap, e)
	k.heap = h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the heap's earliest event.
//
//cbsim:hotpath
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	k.heap = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// stepOne pops and fires the earliest event, advancing the clock to its
// time. The caller must ensure events are pending. It is the single
// shared pop-loop body of Step, Run, and RunUntil.
//
//cbsim:hotpath
func (k *Kernel) stepOne() {
	if !k.cached {
		k.locate()
	}
	var e event
	if si := k.cachedSlot; si >= 0 {
		// Read the fields in place: the entry is free but not reused
		// before Act schedules again.
		p := &k.arena[k.popSlot(si)]
		e.when, e.arg, e.actor, e.msg = p.when, p.arg, p.actor, p.msg
	} else {
		e = k.heapPop()
	}
	k.cached = false
	if e.when > k.now+1 {
		k.tele.Skips++
	}
	k.now = e.when
	k.nrun++
	k.actors[e.actor].Act(k.msgs[e.msg], e.arg)
}

// Step fires the single earliest pending event and advances the clock to
// its time. It reports false if no events are pending.
//
//cbsim:hotpath
func (k *Kernel) Step() bool {
	if k.Pending() == 0 {
		return false
	}
	k.stepOne()
	return true
}

// Run fires events until the queue drains or the clock would pass limit.
// It returns nil when the queue drained, ErrLimit otherwise.
// A limit of 0 means no limit.
func (k *Kernel) Run(limit uint64) error {
	for k.Pending() > 0 {
		if limit != 0 && k.earliest() > limit {
			k.now = limit
			return ErrLimit
		}
		k.stepOne()
	}
	return nil
}

// RunUntil fires events while cond returns false, stopping as soon as it
// returns true (checked after each event) or the queue drains or the limit
// is exceeded. It returns nil if cond became true.
func (k *Kernel) RunUntil(limit uint64, cond func() bool) error {
	if cond() {
		return nil
	}
	for k.Pending() > 0 {
		if limit != 0 && k.earliest() > limit {
			k.now = limit
			return ErrLimit
		}
		k.stepOne()
		if cond() {
			return nil
		}
	}
	if cond() {
		return nil
	}
	return errors.New("sim: event queue drained before condition held")
}

// RunToBoundary fires every event scheduled strictly before cycle target
// and none at or after it, pausing the kernel exactly at the boundary.
// Unlike Run/RunUntil it never bumps the clock to the boundary: Now()
// stays at the last fired event's time, so a run chopped into boundary
// segments executes the identical event sequence — and leaves identical
// state — as one uninterrupted run. This is the replay subsystem's
// chunking primitive: checkpoints and state digests are only comparable
// across runs when they are taken at exact cycle boundaries.
//
// It returns true when it paused at the boundary (or the queue drained),
// false when cond stopped it first. cond, when non-nil, is checked after
// each event, exactly like RunUntil's.
//
//cbsim:hotpath
func (k *Kernel) RunToBoundary(target uint64, cond func() bool) bool {
	if cond != nil && cond() {
		return false
	}
	for k.Pending() > 0 {
		if k.earliest() >= target {
			return true
		}
		k.stepOne()
		if cond != nil && cond() {
			return false
		}
	}
	return true
}

// NextEventTime reports the cycle of the earliest pending event, or
// false when the queue is empty. Peeking does not perturb the queue —
// the lockstep bisection scan uses it to advance two kernels to their
// common next boundary without firing anything.
//
//cbsim:hotpath
func (k *Kernel) NextEventTime() (uint64, bool) {
	if k.Pending() == 0 {
		return 0, false
	}
	return k.earliest(), true
}

// Scheduled reports how many events have ever been scheduled (the
// sequence counter). Together with Executed it identifies the kernel's
// position in an execution without requiring quiescence, which makes it
// digestible mid-run — unlike Now(), which differs between a paused and
// an uninterrupted run even when their histories are identical (the
// paused clock rests on the last event, not the boundary).
func (k *Kernel) Scheduled() uint64 { return k.seq }

// KernelState is the portable execution state of a quiescent kernel: with
// no events pending, the clock, sequence counter, and executed count fully
// determine all future behavior (machine snapshots capture and restore
// exactly this). Registered actors and message handles are wiring, not
// state: they stay with the kernel.
type KernelState struct {
	Now      uint64
	Seq      uint64
	Executed uint64
}

// ErrNotQuiescent is returned by State when events are still pending.
var ErrNotQuiescent = errors.New("sim: kernel has pending events")

// State captures the kernel's execution state. It fails with
// ErrNotQuiescent unless the queue is drained: pending events name live
// actors and messages, which a KernelState does not capture.
func (k *Kernel) State() (KernelState, error) {
	if k.Pending() != 0 {
		return KernelState{}, ErrNotQuiescent
	}
	return KernelState{Now: k.now, Seq: k.seq, Executed: k.nrun}, nil
}

// SetState overwrites the kernel's execution state, dropping any pending
// events and resetting telemetry. Restoring a quiescent state into a
// kernel — in any state — makes its future behavior byte-identical to the
// kernel the state was captured from.
func (k *Kernel) SetState(s KernelState) {
	clear(k.slots)
	clear(k.occ)
	if k.arena != nil {
		k.arena = k.arena[:1]
		k.link = k.link[:1]
	}
	k.free = 0
	k.heap = k.heap[:0]
	k.nwheel = 0
	k.cached = false
	k.tele = Telemetry{}
	k.now = s.Now
	k.seq = s.Seq
	k.nrun = s.Executed
}
