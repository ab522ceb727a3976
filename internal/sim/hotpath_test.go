package sim

import (
	"testing"

	"repro/internal/memtypes"
)

// The kernel hot path must not allocate: every simulated cycle pops and
// pushes events, so a single allocation per event dominates the profile.

func TestScheduleStepNoAllocs(t *testing.T) {
	k := New()
	a := fn(k, func() {})
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(1, a, nil, 0)
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.1f times per event, want 0", allocs)
	}
}

type recordingActor struct {
	msgs []*memtypes.Message
	args []uint64
}

func (a *recordingActor) Act(msg *memtypes.Message, arg uint64) {
	a.msgs = append(a.msgs, msg)
	a.args = append(a.args, arg)
}

func TestActorScheduling(t *testing.T) {
	k := New()
	a := &recordingActor{}
	aid := k.Register(a)
	payload := &memtypes.Message{Seq: 7}
	k.Schedule(3, aid, payload, 42)
	k.At(5, aid, nil, 99)
	var fnAt uint64
	k.Schedule(4, fn(k, func() { fnAt = k.Now() }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(a.args) != 2 || a.args[0] != 42 || a.args[1] != 99 {
		t.Fatalf("actor args = %v, want [42 99]", a.args)
	}
	if a.msgs[0] != payload || a.msgs[1] != nil {
		t.Fatalf("actor messages not passed through verbatim: %v", a.msgs)
	}
	if fnAt != 4 {
		t.Fatalf("interleaved actor fired at %d, want 4", fnAt)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a nil actor did not panic")
		}
	}()
	New().Register(nil)
}

// A message is entered in the handle table once: rescheduling it, or
// recycling it through a pool that keeps its handle, reuses the entry.
func TestMessageHandleReused(t *testing.T) {
	k := New()
	a := &recordingActor{}
	aid := k.Register(a)
	var pool memtypes.MsgPool
	p1, p2 := pool.Get(), pool.Get()
	pool.Put(p1)
	pool.Put(p2)
	for i := 0; i < 10; i++ {
		m1, m2 := pool.Get(), pool.Get()
		k.Schedule(1, aid, m1, 0)
		k.Schedule(2, aid, m2, 0)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		pool.Put(m1)
		pool.Put(m2)
	}
	if got := k.MessageHandles(); got != 2 {
		t.Fatalf("message table holds %d entries after 20 schedules of 2 messages, want 2", got)
	}
	for i, msg := range a.msgs {
		if msg != p1 && msg != p2 {
			t.Fatalf("event %d delivered %p, not one of the scheduled messages", i, msg)
		}
	}
}

func TestActorScheduleNoAllocs(t *testing.T) {
	k := New()
	a := &recordingActor{msgs: make([]*memtypes.Message, 0, 4096), args: make([]uint64, 0, 4096)}
	aid := k.Register(a)
	payload := &memtypes.Message{}
	allocs := testing.AllocsPerRun(1000, func() {
		a.msgs, a.args = a.msgs[:0], a.args[:0]
		k.Schedule(1, aid, payload, 7)
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step with a payload allocated %.1f times per event, want 0", allocs)
	}
}

// Fired arena entries are recycled LIFO, so however far the clock sweeps
// the wheel, the arena never grows past the peak number of pending
// events.
func TestArenaBoundedByPeakPending(t *testing.T) {
	k := New()
	sp := make([]spinWaveActor, 64)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		sp[i].self = k.Register(&sp[i])
		k.Schedule(sp[i].period, sp[i].self, nil, 0)
	}
	for i := 0; i < 100_000; i++ {
		if !k.Step() {
			t.Fatal("spin wave drained")
		}
	}
	peak := k.Telemetry().MaxPending
	if entries := uint64(len(k.arena) - 1); entries > peak {
		t.Fatalf("arena holds %d entries after a 100k-event spin wave, peak pending was %d", entries, peak)
	}
	if peak != 64 {
		t.Fatalf("peak pending = %d, want the 64 spinners", peak)
	}
}

// SetState drops every pending event in both tiers: none fires
// afterwards, and the arena is ready for new events.
func TestSetStateDropsArenaEvents(t *testing.T) {
	k := New()
	restored := false
	early := fn(k, func() {
		if restored {
			t.Error("dropped event fired")
		}
	})
	// Both tiers hold events when SetState runs: the wheel up to cycle
	// 500+wheelSlots, the heap beyond.
	for d := uint64(0); d < 3000; d += 7 {
		k.Schedule(d, early, nil, 0)
	}
	if err := k.Run(500); err != ErrLimit {
		t.Fatalf("Run(500) err = %v, want ErrLimit", err)
	}
	k.SetState(KernelState{Now: 10_000})
	restored = true
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after SetState, want 0", k.Pending())
	}
	fired := 0
	k.Schedule(1, fn(k, func() { fired++ }), nil, 0)
	if err := k.Run(0); err != nil {
		t.Fatalf("Run after SetState: %v", err)
	}
	if fired != 1 || k.Now() != 10_001 {
		t.Fatalf("fired=%d now=%d after SetState, want 1 event at 10001", fired, k.Now())
	}
}

// spinWaveActor models a parked core with a known next wake: it fires and
// immediately reschedules itself period cycles out. No closures, no
// allocations.
type spinWaveActor struct {
	k      *Kernel
	self   ActorID
	period uint64
	fires  uint64
}

func (a *spinWaveActor) Act(*memtypes.Message, uint64) {
	a.fires++
	a.k.Schedule(a.period, a.self, nil, 0)
}

// benchmarkSpinWave is the kernel's target distribution: many cores whose
// next wake cycle is already known (short staggered periods -> wheel) plus
// a block of sparse far-future events (watchdogs, timeouts -> heap) that
// the heap-only kernel must sift past on every operation.
func benchmarkSpinWave(b *testing.B, k *Kernel) {
	const spinners = 64
	sp := make([]spinWaveActor, spinners)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		sp[i].self = k.Register(&sp[i])
		k.Schedule(sp[i].period, sp[i].self, nil, 0)
	}
	idle := &spinWaveActor{k: k, period: 2_000_000_000}
	idle.self = k.Register(idle)
	for i := 0; i < 1024; i++ {
		k.At(1_000_000_000+uint64(i), idle.self, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

func BenchmarkKernelSpinWave(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchmarkSpinWave(b, New()) })
	b.Run("heap", func(b *testing.B) { benchmarkSpinWave(b, NewHeapOnly()) })
}

func TestSpinWaveNoAllocs(t *testing.T) {
	k := New()
	a := &spinWaveActor{k: k, period: 7}
	a.self = k.Register(a)
	k.Schedule(a.period, a.self, nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("spin-wave step allocated %.1f times per event, want 0", allocs)
	}
}
