// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every simulator component (cores, cache controllers, network routers)
// is an Actor, and every event is an actor event: a receiver plus an
// inline payload — a message pointer and a scalar — scheduled at an
// absolute or relative cycle, so nothing allocates. Events that share a
// cycle fire in scheduling order, which makes every run bit-reproducible:
// the queue is ordered by (time, sequence number).
//
// The scheduler is two-tiered. Near-future events — the overwhelmingly
// common case: NoC hops, cache latencies, spin retries, known next-wakes
// of parked cores — go to a fixed-size calendar wheel with one slot per
// cycle, giving O(1) schedule and pop. Far-future events overflow into a
// hand-rolled typed binary min-heap (container/heap would box every event
// into an `any`, costing an allocation and an indirect call per event) and
// lazily migrate onto the wheel as the clock approaches them. Advancing
// the clock scans the wheel's occupancy bitmap, so a fully quiescent phase
// — every core parked with a known wake cycle — costs one bitmap jump to
// the next occupied slot instead of per-cycle scans. Both tiers keep
// events in flat pre-grown arrays and perform zero heap allocations per
// Schedule/Step in steady state.
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
// controller, the mesh) that many events fire against. The receiver, a
// message payload and a small scalar are stored inline in the event, so
// scheduling allocates nothing.
type Actor interface {
	// Act fires the event. msg and arg are the values passed to
	// At/Schedule, verbatim; msg may be nil.
	Act(msg *memtypes.Message, arg uint64)
}

type event struct {
	when  uint64
	seq   uint64
	actor Actor
	msg   *memtypes.Message
	arg   uint64
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

// slotCap is the pre-grown per-slot capacity: slots that ever need more
// keep their grown backing across reuse, so growth is one-time per slot.
const slotCap = 2

// wheelSlot holds the pending events of one cycle. ev[head:] are live, in
// sequence order; entries before head have fired and are zeroed.
type wheelSlot struct {
	ev   []event
	head int
}

// initialHeapCap pre-grows the overflow heap so steady-state far-future
// scheduling never reallocates the backing array.
const initialHeapCap = 4096

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
	slots  []wheelSlot // calendar wheel (nil until first use of a zero Kernel)
	occ    []uint64    // occupancy bitmap, one bit per slot
	heap   []event     // overflow tier for events >= wheelSlots cycles out
	nwheel int         // live events on the wheel

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
	k := &Kernel{heap: make([]event, 0, initialHeapCap)}
	k.initWheel()
	return k
}

// NewHeapOnly returns a kernel that schedules every event through the
// overflow heap, bypassing the calendar wheel — the single-tier reference
// scheduler. Results are byte-identical to the two-tier kernel (same
// (time, sequence) contract); only the constant factor differs. It exists
// for the wheel-vs-heap identity tests and benchmark baselines.
func NewHeapOnly() *Kernel {
	return &Kernel{heap: make([]event, 0, initialHeapCap), heapOnly: true}
}

// initWheel allocates the wheel: all slots share one flat pre-grown
// backing array so steady-state scheduling touches no allocator.
func (k *Kernel) initWheel() {
	k.slots = make([]wheelSlot, wheelSlots)
	k.occ = make([]uint64, wheelWords)
	backing := make([]event, wheelSlots*slotCap)
	for i := range k.slots {
		k.slots[i].ev = backing[:0:slotCap]
		backing = backing[slotCap:]
	}
}

// Now reports the current simulation cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Executed reports how many events have fired so far.
func (k *Kernel) Executed() uint64 { return k.nrun }

// Pending reports how many events are scheduled but not yet fired.
func (k *Kernel) Pending() int { return k.nwheel + len(k.heap) }

// Telemetry returns the scheduler-internal counters accumulated so far.
func (k *Kernel) Telemetry() Telemetry { return k.tele }

// Schedule runs a.Act(msg, arg) delay cycles from now. A delay of zero
// fires later in the current cycle, after all previously scheduled events
// for this cycle.
//
//cbsim:hotpath
func (k *Kernel) Schedule(delay uint64, a Actor, msg *memtypes.Message, arg uint64) {
	k.At(k.now+delay, a, msg, arg)
}

// At runs a.Act(msg, arg) at the absolute cycle when. A when earlier than
// Now() is clamped to now: the event fires later in the current cycle,
// after all previously scheduled events, exactly like Schedule(0, ...).
// Protocol layers compute absolute deadlines such as "FIFO floor +
// latency" whose floor may already have passed; the clamp makes that
// well-defined instead of a time-travel bug.
//
//cbsim:hotpath
func (k *Kernel) At(when uint64, a Actor, msg *memtypes.Message, arg uint64) {
	if a == nil {
		panic("sim: nil event actor")
	}
	k.push(event{when: when, actor: a, msg: msg, arg: arg})
}

// push inserts an event, assigning its sequence number, into the wheel
// (near future) or the overflow heap (far future).
//
//cbsim:hotpath
func (k *Kernel) push(e event) {
	if e.when < k.now {
		e.when = k.now // clamp: see At
	}
	e.seq = k.seq
	k.seq++
	k.cached = false
	if !k.heapOnly && e.when-k.now < wheelSlots {
		if k.slots == nil {
			k.initWheel()
		}
		k.wheelPush(e)
	} else {
		k.tele.HeapPushes++
		k.heapPush(e)
	}
	if p := uint64(k.nwheel + len(k.heap)); p > k.tele.MaxPending {
		k.tele.MaxPending = p
	}
}

// wheelPush inserts an event with now <= e.when < now+wheelSlots into its
// slot, keeping the slot in sequence order. Direct pushes append (their
// sequence numbers are monotone); only a heap->wheel migration can arrive
// with a sequence number below an already-slotted event, taking the
// binary-insert path.
//
//cbsim:hotpath
func (k *Kernel) wheelPush(e event) {
	k.tele.WheelPushes++
	si := int(e.when) & wheelMask
	s := &k.slots[si]
	wasEmpty := s.head == len(s.ev)
	if n := len(s.ev); wasEmpty || s.ev[n-1].seq < e.seq {
		s.ev = append(s.ev, e)
	} else {
		s.ev = append(s.ev, event{})
		lo, hi := s.head, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.ev[mid].seq < e.seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(s.ev[lo+1:], s.ev[lo:n])
		s.ev[lo] = e
	}
	if wasEmpty {
		k.occ[si>>6] |= 1 << uint(si&63)
	}
	k.nwheel++
}

// popSlot removes the earliest (lowest-sequence) event of slot si, zeroing
// the vacated entry so the popped actor and message stay collectable. A drained slot rewinds to reuse its backing.
//
//cbsim:hotpath
func (k *Kernel) popSlot(si int) event {
	s := &k.slots[si]
	e := s.ev[s.head]
	s.ev[s.head] = event{}
	s.head++
	if s.head == len(s.ev) {
		s.ev = s.ev[:0]
		s.head = 0
		k.occ[si>>6] &^= 1 << uint(si&63)
	}
	k.nwheel--
	return e
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
// Same-time events pop from the heap in sequence order, and wheelPush
// re-orders against any directly pushed slot-mates, so migration preserves
// the (time, sequence) contract exactly.
//
//cbsim:hotpath
func (k *Kernel) migrate() {
	for len(k.heap) > 0 && k.heap[0].when-k.now < wheelSlots {
		k.tele.Migrations++
		k.wheelPush(k.heapPop())
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

// heapPop removes and returns the heap's earliest event, zeroing the
// vacated tail slot so the popped actor and message stay collectable.
//
//cbsim:hotpath
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
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
		e = k.popSlot(si)
	} else {
		e = k.heapPop()
	}
	k.cached = false
	if e.when > k.now+1 {
		k.tele.Skips++
	}
	k.now = e.when
	k.nrun++
	e.actor.Act(e.msg, e.arg)
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
// exactly this).
type KernelState struct {
	Now      uint64
	Seq      uint64
	Executed uint64
}

// ErrNotQuiescent is returned by State when events are still pending.
var ErrNotQuiescent = errors.New("sim: kernel has pending events")

// State captures the kernel's execution state. It fails with
// ErrNotQuiescent unless the queue is drained: pending events point at
// live actors and messages, which a KernelState does not capture.
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
	for i := range k.slots {
		sl := &k.slots[i]
		if len(sl.ev) > 0 {
			clear(sl.ev[sl.head:])
			sl.ev = sl.ev[:0]
			sl.head = 0
		}
	}
	for i := range k.occ {
		k.occ[i] = 0
	}
	clear(k.heap)
	k.heap = k.heap[:0]
	k.nwheel = 0
	k.cached = false
	k.tele = Telemetry{}
	k.now = s.Now
	k.seq = s.Seq
	k.nrun = s.Executed
}
