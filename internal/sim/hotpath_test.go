package sim

import (
	"testing"

	"repro/internal/memtypes"
)

// The kernel hot path must not allocate: every simulated cycle pops and
// pushes events, so a single allocation per event dominates the profile.

func TestScheduleStepNoAllocs(t *testing.T) {
	k := New()
	fn := fnActor(func() {}) // static: capturing nothing, allocated once
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(1, fn, nil, 0)
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
	payload := &memtypes.Message{Seq: 7}
	k.Schedule(3, a, payload, 42)
	k.At(5, a, nil, 99)
	var fnAt uint64
	k.Schedule(4, fnActor(func() { fnAt = k.Now() }), nil, 0)
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

func TestNilActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil actor did not panic")
		}
	}()
	New().Schedule(1, nil, nil, 0)
}

func TestActorScheduleNoAllocs(t *testing.T) {
	k := New()
	a := &recordingActor{msgs: make([]*memtypes.Message, 0, 4096), args: make([]uint64, 0, 4096)}
	payload := &memtypes.Message{}
	allocs := testing.AllocsPerRun(1000, func() {
		a.msgs, a.args = a.msgs[:0], a.args[:0]
		k.Schedule(1, a, payload, 7)
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step with a payload allocated %.1f times per event, want 0", allocs)
	}
}

// Popping must zero the vacated entry in both tiers: otherwise the
// backing arrays pin the last-popped actor and message forever.
func TestPopZeroesVacatedSlot(t *testing.T) {
	a := &recordingActor{}
	msg := &memtypes.Message{}
	k := New()
	k.Schedule(1, a, msg, 0)
	k.Schedule(2, a, msg, 0)
	if !k.Step() {
		t.Fatal("Step returned false")
	}
	// Cycle 1's wheel slot drained and rewound; its backing entry must
	// not retain the fired event.
	e := k.slots[1].ev[:1][0]
	if e.actor != nil || e.msg != nil {
		t.Fatalf("vacated wheel slot not zeroed: %+v", e)
	}

	kh := NewHeapOnly()
	kh.Schedule(1, a, msg, 0)
	kh.Schedule(2, a, msg, 0)
	if !kh.Step() {
		t.Fatal("Step returned false")
	}
	tail := kh.heap[:2][1]
	if tail.actor != nil || tail.msg != nil {
		t.Fatalf("vacated heap slot not zeroed: %+v", tail)
	}
}

// spinWaveActor models a parked core with a known next wake: it fires and
// immediately reschedules itself period cycles out. No closures, no
// allocations.
type spinWaveActor struct {
	k      *Kernel
	period uint64
	fires  uint64
}

func (a *spinWaveActor) Act(*memtypes.Message, uint64) {
	a.fires++
	a.k.Schedule(a.period, a, nil, 0)
}

// benchmarkSpinWave is the ISSUE target distribution: many cores whose
// next wake cycle is already known (short staggered periods -> wheel) plus
// a block of sparse far-future events (watchdogs, timeouts -> heap) that
// the heap-only kernel must sift past on every operation.
func benchmarkSpinWave(b *testing.B, k *Kernel) {
	const spinners = 64
	sp := make([]spinWaveActor, spinners)
	for i := range sp {
		sp[i] = spinWaveActor{k: k, period: uint64(i%17 + 3)}
		k.Schedule(sp[i].period, &sp[i], nil, 0)
	}
	idle := &spinWaveActor{k: k, period: 2_000_000_000}
	for i := 0; i < 1024; i++ {
		k.At(1_000_000_000+uint64(i), idle, nil, 0)
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
	k.Schedule(a.period, a, nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if !k.Step() {
			t.Fatal("Step returned false with a pending event")
		}
	})
	if allocs != 0 {
		t.Fatalf("spin-wave step allocated %.1f times per event, want 0", allocs)
	}
}
