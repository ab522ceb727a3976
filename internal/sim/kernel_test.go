package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/memtypes"
)

// fnActor adapts a function to an Actor for tests.
type fnActor func()

func (f fnActor) Act(*memtypes.Message, uint64) { f() }

// fn registers f with k as an actor of its own (tests).
func fn(k *Kernel, f func()) ActorID { return k.Register(fnActor(f)) }

// An event is {when, seq, arg, actor, msg}: two words of ordering, the
// scalar, the actor ID and the message handle. The wheel and the heap
// move events by value, so their size is the kernel's memory traffic.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", got)
	}
}

// Events are plain data: no field may hold a pointer, so the garbage
// collector never scans the wheel arena or the heap, and a pending event
// can be copied out of the kernel as a value.
func TestEventHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("event.%s is a %s, want a fixed-size integer", f.Name, f.Type)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var k Kernel
	fired := false
	k.Schedule(5, fn(&k, func() { fired = true }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.Now() != 5 {
		t.Fatalf("Now = %d, want 5", k.Now())
	}
}

func TestFIFOWithinCycle(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(3, fn(k, func() { order = append(order, i) }), nil, 0)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-cycle events must fire in scheduling order)", i, v, i)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	k := New()
	var times []uint64
	delays := []uint64{9, 2, 7, 2, 0, 100, 1}
	for _, d := range delays {
		d := d
		k.Schedule(d, fn(k, func() { times = append(times, k.Now()) }), nil, 0)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatalf("events fired out of time order: %v", times)
	}
	if len(times) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(times), len(delays))
	}
}

func TestZeroDelayFiresSameCycle(t *testing.T) {
	k := New()
	var at uint64 = 999
	k.Schedule(4, fn(k, func() {
		k.Schedule(0, fn(k, func() { at = k.Now() }), nil, 0)
	}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 4 {
		t.Fatalf("zero-delay event fired at %d, want 4", at)
	}
}

func TestChainedScheduling(t *testing.T) {
	k := New()
	count := 0
	var step ActorID
	step = fn(k, func() {
		count++
		if count < 100 {
			k.Schedule(1, step, nil, 0)
		}
	})
	k.Schedule(1, step, nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if k.Now() != 100 {
		t.Fatalf("Now = %d, want 100", k.Now())
	}
}

func TestRunLimit(t *testing.T) {
	k := New()
	fired := false
	k.Schedule(50, fn(k, func() { fired = true }), nil, 0)
	if err := k.Run(10); err != ErrLimit {
		t.Fatalf("Run(10) err = %v, want ErrLimit", err)
	}
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if k.Now() != 10 {
		t.Fatalf("Now = %d, want clamped to limit 10", k.Now())
	}
	// Resuming with a larger limit completes.
	if err := k.Run(100); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire after resume")
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	n := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(uint64(i), fn(k, func() { n++ }), nil, 0)
	}
	err := k.RunUntil(0, func() bool { return n == 3 })
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3 (stop as soon as condition holds)", n)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %d, want 3", k.Now())
	}
}

func TestRunUntilDrained(t *testing.T) {
	k := New()
	k.Schedule(1, fn(k, func() {}), nil, 0)
	if err := k.RunUntil(0, func() bool { return false }); err == nil {
		t.Fatal("expected error when queue drains before condition holds")
	}
}

// At with when < Now() clamps to now: the event fires later in the
// current cycle, after everything already scheduled for it — identical to
// Schedule(0, ...). Protocol layers compute absolute deadlines (FIFO floor
// + latency) whose floor may already have passed; the clamp makes that
// well-defined.
func TestSchedulePastClampsToNow(t *testing.T) {
	k := New()
	var order []string
	k.Schedule(10, fn(k, func() {
		k.Schedule(0, fn(k, func() { order = append(order, "zero-delay") }), nil, 0)
		k.At(5, fn(k, func() {
			order = append(order, "clamped")
			if k.Now() != 10 {
				t.Errorf("clamped event fired at %d, want 10", k.Now())
			}
		}), nil, 0)
	}), nil, 0)
	a := &recordingActor{}
	aid := k.Register(a)
	k.Schedule(20, fn(k, func() { k.At(3, aid, nil, 77) }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The clamped event was scheduled after the zero-delay one, so it
	// fires second within cycle 10.
	want := []string{"zero-delay", "clamped"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20 (clamped actor event fired at cycle 20)", k.Now())
	}
	if len(a.args) != 1 || a.args[0] != 77 {
		t.Fatalf("clamped actor event did not fire: %v", a.args)
	}
}

func TestStep(t *testing.T) {
	k := New()
	n := 0
	k.Schedule(2, fn(k, func() { n++ }), nil, 0)
	k.Schedule(4, fn(k, func() { n++ }), nil, 0)
	if !k.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if n != 1 || k.Now() != 2 {
		t.Fatalf("after one step: n=%d now=%d", n, k.Now())
	}
	if !k.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if k.Step() {
		t.Fatal("Step returned true with empty queue")
	}
	if k.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", k.Executed())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in insertion order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		type rec struct {
			when uint64
			idx  int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, uint64(d)
			k.Schedule(d, fn(k, func() { got = append(got, rec{k.Now(), i}) }), nil, 0)
		}
		if err := k.Run(0); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].when < got[i-1].when {
				return false
			}
			if got[i].when == got[i-1].when && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// A far-future event (overflow heap) with a lower sequence number must
// fire before a directly wheel-pushed event at the same cycle with a
// higher sequence number: migration re-sorts the slot by sequence.
func TestMigrationPreservesSeqOrder(t *testing.T) {
	k := New()
	var order []int
	k.At(2000, fn(k, func() { order = append(order, 0) }), nil, 0) // seq 0: 2000 cycles out -> heap
	k.At(1500, fn(k, func() {                                      // seq 1: also heap at push time
		k.At(2000, fn(k, func() { order = append(order, 1) }), nil, 0) // seq 2: 500 out -> wheel direct
	}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v, want [0 1] (migrated low-seq event must fire first)", order)
	}
	if tele := k.Telemetry(); tele.Migrations == 0 {
		t.Fatal("expected at least one heap->wheel migration")
	}
}

// Property: the two-tier kernel and the heap-only reference kernel fire
// the same events at the same cycles in the same order, including events
// scheduled from within events across the wheel horizon.
func TestWheelHeapIdenticalOrder(t *testing.T) {
	trace := func(k *Kernel, delays []uint16) [][2]uint64 {
		var got [][2]uint64
		for i, d := range delays {
			i, d := uint64(i), uint64(d)
			k.Schedule(d, fn(k, func() {
				got = append(got, [2]uint64{k.Now(), i})
				if d%3 == 0 {
					k.Schedule(d/2+1500, fn(k, func() {
						got = append(got, [2]uint64{k.Now(), 1<<32 | i})
					}), nil, 0)
				}
			}), nil, 0)
		}
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	f := func(delays []uint16) bool {
		return reflect.DeepEqual(trace(New(), delays), trace(NewHeapOnly(), delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Sparse wheels advance the clock in one jump per event; telemetry counts
// those batch skips.
func TestBatchSkipTelemetry(t *testing.T) {
	k := New()
	k.Schedule(100, fn(k, func() {}), nil, 0)
	k.Schedule(700, fn(k, func() {}), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tele := k.Telemetry(); tele.Skips != 2 {
		t.Fatalf("Skips = %d, want 2 (0->100 and 100->700)", tele.Skips)
	}
	if tele := k.Telemetry(); tele.WheelPushes != 2 || tele.HeapPushes != 0 {
		t.Fatalf("telemetry = %+v, want both events on the wheel", tele)
	}
}

func TestStateRoundTrip(t *testing.T) {
	k := New()
	k.Schedule(5, fn(k, func() {}), nil, 0)
	k.Schedule(2000, fn(k, func() {}), nil, 0)
	if _, err := k.State(); err != ErrNotQuiescent {
		t.Fatalf("State with pending events: err = %v, want ErrNotQuiescent", err)
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st, err := k.State()
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.Now != 2000 || st.Seq != 2 || st.Executed != 2 {
		t.Fatalf("state = %+v, want {2000 2 2}", st)
	}

	// Restore into a kernel with pending garbage in both tiers: the
	// garbage is dropped, and future behavior matches the source kernel.
	k2 := New()
	k2.Schedule(1, fn(k2, func() { t.Error("dropped wheel event fired") }), nil, 0)
	k2.At(99999, fn(k2, func() { t.Error("dropped heap event fired") }), nil, 0)
	k2.SetState(st)
	if k2.Pending() != 0 {
		t.Fatalf("Pending = %d after SetState, want 0", k2.Pending())
	}
	if k2.Now() != 2000 || k2.Executed() != 2 {
		t.Fatalf("restored now=%d executed=%d, want 2000/2", k2.Now(), k2.Executed())
	}
	var at uint64
	k2.Schedule(3, fn(k2, func() { at = k2.Now() }), nil, 0)
	if err := k2.Run(0); err != nil {
		t.Fatalf("Run after restore: %v", err)
	}
	if at != 2003 {
		t.Fatalf("event after restore fired at %d, want 2003", at)
	}
}

// The Run limit clamp must not disturb the wheel window invariant: after
// stopping at the limit, resuming fires everything in the right order.
func TestRunLimitAcrossWheelHorizon(t *testing.T) {
	k := New()
	var times []uint64
	for _, d := range []uint64{500, 1500, 3000, 3000, 9000} {
		k.Schedule(d, fn(k, func() { times = append(times, k.Now()) }), nil, 0)
	}
	for _, limit := range []uint64{200, 600, 2500, 3000, 5000} {
		if err := k.Run(limit); err != ErrLimit {
			t.Fatalf("Run(%d) err = %v, want ErrLimit", limit, err)
		}
		if k.Now() != limit {
			t.Fatalf("Now = %d after Run(%d), want clamp to limit", k.Now(), limit)
		}
	}
	if err := k.Run(0); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	want := []uint64{500, 1500, 3000, 3000, 9000}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("fire times = %v, want %v", times, want)
	}
}

func BenchmarkKernelChain(b *testing.B) {
	k := New()
	var step ActorID
	n := 0
	step = fn(k, func() {
		n++
		if n < b.N {
			k.Schedule(1, step, nil, 0)
		}
	})
	k.Schedule(1, step, nil, 0)
	b.ResetTimer()
	if err := k.Run(0); err != nil {
		b.Fatal(err)
	}
}
