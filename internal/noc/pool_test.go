package noc

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/memtypes"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMsgPoolRecycles(t *testing.T) {
	var p memtypes.MsgPool
	m1 := p.Get()
	m1.Addr = 0xdead
	p.Put(m1)
	if p.Len() != 1 {
		t.Fatalf("pool Len = %d, want 1", p.Len())
	}
	m2 := p.Get()
	if m2 != m1 {
		t.Fatal("pool did not reuse the freed message")
	}
	if *m2 != (memtypes.Message{}) {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
}

// A pooled message travelling the mesh must cost zero heap allocations per
// hop in steady state: the event heap is pre-grown, hops are actor events,
// and the message itself is recycled by the consuming handler.
func TestPooledSendZeroAllocs(t *testing.T) {
	k := sim.New()
	m := New(k, 4, 4, nil, false)
	for n := 0; n < m.Nodes(); n++ {
		m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) {
			m.Free(msg)
		}))
	}
	send := func() {
		// Corner to corner: 6 hops.
		msg := m.NewMessage(memtypes.Message{Src: 0, Dst: 15, Class: memtypes.ClassControl})
		m.Send(msg)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	send() // warm the pool and the free-list backing array
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("pooled send allocated %.1f times per message, want 0", allocs)
	}
}

// The observer hook must not break the zero-alloc hot path: a pooled
// message travelling the mesh with a cycle accumulator and a metrics
// collector subscribed still costs zero heap allocations per hop in
// steady state (the hook is a func field taking a value event — no
// boxing, no formatting).
func TestPooledSendZeroAllocsWithCyclesObserver(t *testing.T) {
	k := sim.New()
	m := New(k, 4, 4, nil, false)
	sinks := trace.Multi{cycles.NewAccumulator(16), trace.NewMetricsCollector(obs.NewSimMetrics(obs.NewRegistry()))}
	m.SetObserver(sinks.Emit)
	for n := 0; n < m.Nodes(); n++ {
		m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) {
			m.Free(msg)
		}))
	}
	send := func() {
		msg := m.NewMessage(memtypes.Message{Src: 0, Dst: 15, Core: 3, Class: memtypes.ClassControl})
		m.Send(msg)
		if err := k.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	send()
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("observed send allocated %.1f times per message, want 0", allocs)
	}
}
