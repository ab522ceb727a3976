package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memtypes"
	"repro/internal/sim"
)

func newTestMesh(t *testing.T, w, h int) (*sim.Kernel, *Mesh, *[]*memtypes.Message) {
	t.Helper()
	k := sim.New()
	m := New(k, w, h, nil, false)
	var got []*memtypes.Message
	for n := 0; n < m.Nodes(); n++ {
		m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) {
			got = append(got, msg)
		}))
	}
	return k, m, &got
}

func TestHopCount(t *testing.T) {
	k := sim.New()
	m := New(k, 8, 8, nil, false)
	cases := []struct {
		src, dst memtypes.NodeID
		hops     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 7, 7},
		{0, 8, 1},   // one row down
		{0, 63, 14}, // opposite corner of 8x8
		{9, 9, 0},
		{10, 17, 3}, // (2,1)->(1,2): 1+1... wait
	}
	// Recompute the last case properly: node 10 = (2,1), node 17 = (1,2).
	cases[len(cases)-1].hops = 2
	for _, c := range cases {
		if got := m.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	k, m, got := newTestMesh(t, 4, 4)
	msg := &memtypes.Message{Src: 5, Dst: 5, Class: memtypes.ClassControl}
	m.Send(msg)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0] != msg {
		t.Fatal("local message not delivered")
	}
	if k.Now() != DefaultLocalLatency {
		t.Fatalf("local delivery at %d, want %d", k.Now(), DefaultLocalLatency)
	}
	if s := m.Stats(); s.FlitHops != 0 || s.Messages != 0 {
		t.Fatalf("local message counted as traffic: %+v", s)
	}
}

func TestUnloadedLatency(t *testing.T) {
	k, m, got := newTestMesh(t, 8, 8)
	// 0 -> 63: 14 hops, 6 cycles each.
	var arrived uint64
	m.Attach(63, HandlerFunc(func(msg *memtypes.Message) {
		arrived = k.Now()
		*got = append(*got, msg)
	}))
	m.Send(&memtypes.Message{Src: 0, Dst: 63, Class: memtypes.ClassControl})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := uint64(14 * DefaultSwitchLatency)
	if arrived != want {
		t.Fatalf("arrival at %d, want %d (14 hops x %d)", arrived, want, DefaultSwitchLatency)
	}
}

func TestFlitHopAccounting(t *testing.T) {
	k, m, _ := newTestMesh(t, 8, 8)
	m.Send(&memtypes.Message{Src: 0, Dst: 3, Class: memtypes.ClassLineData}) // 3 hops x 5 flits
	m.Send(&memtypes.Message{Src: 0, Dst: 8, Class: memtypes.ClassControl})  // 1 hop x 1 flit
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.FlitHops != 3*5+1 {
		t.Fatalf("FlitHops = %d, want 16", s.FlitHops)
	}
	if s.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", s.Messages)
	}
	if s.Hops != 4 {
		t.Fatalf("Hops = %d, want 4", s.Hops)
	}
}

func TestLinkContention(t *testing.T) {
	// Two 5-flit messages injected the same cycle on the same route:
	// the second must wait for the first's flits to serialize.
	k, m, _ := newTestMesh(t, 4, 1)
	var t1, t2 uint64
	m.Attach(1, HandlerFunc(func(msg *memtypes.Message) {
		if t1 == 0 {
			t1 = k.Now()
		} else {
			t2 = k.Now()
		}
	}))
	m.Send(&memtypes.Message{Src: 0, Dst: 1, Class: memtypes.ClassLineData})
	m.Send(&memtypes.Message{Src: 0, Dst: 1, Class: memtypes.ClassLineData})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 != DefaultSwitchLatency {
		t.Fatalf("first arrival at %d, want %d", t1, DefaultSwitchLatency)
	}
	if want := uint64(5 + DefaultSwitchLatency); t2 != want {
		t.Fatalf("second arrival at %d, want %d (delayed by 5-flit serialization)", t2, want)
	}
	if m.Stats().LinkWait == 0 {
		t.Fatal("expected nonzero LinkWait under contention")
	}
}

func TestXYRoutingIsDeadlockFreeUnderLoad(t *testing.T) {
	// Saturate an 8x8 mesh with random traffic; everything must arrive.
	k, m, got := newTestMesh(t, 8, 8)
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	for i := 0; i < n; i++ {
		src := memtypes.NodeID(rng.Intn(64))
		dst := memtypes.NodeID(rng.Intn(64))
		for dst == src {
			dst = memtypes.NodeID(rng.Intn(64))
		}
		class := memtypes.ClassControl
		if i%2 == 0 {
			class = memtypes.ClassLineData
		}
		delay := uint64(rng.Intn(100))
		msg := &memtypes.Message{Src: src, Dst: dst, Class: class}
		k.Schedule(delay, k.Register(fnActor(func() { m.Send(msg) })), nil, 0)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("delivered %d messages, want %d", len(*got), n)
	}
}

// Property: X-Y routing always takes exactly the Manhattan-distance number
// of hops, and unloaded latency equals hops*switchLatency.
func TestPropertyRouteLength(t *testing.T) {
	f := func(srcRaw, dstRaw uint8) bool {
		src := memtypes.NodeID(srcRaw % 64)
		dst := memtypes.NodeID(dstRaw % 64)
		if src == dst {
			return true
		}
		k := sim.New()
		m := New(k, 8, 8, nil, false)
		var arrival uint64
		for n := 0; n < 64; n++ {
			m.Attach(memtypes.NodeID(n), HandlerFunc(func(msg *memtypes.Message) { arrival = k.Now() }))
		}
		m.Send(&memtypes.Message{Src: src, Dst: dst, Class: memtypes.ClassControl})
		if err := k.Run(0); err != nil {
			return false
		}
		hops := m.HopCount(src, dst)
		if arrival != uint64(hops)*DefaultSwitchLatency {
			return false
		}
		return m.Stats().Hops == uint64(hops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachMissingHandlerPanics(t *testing.T) {
	k := sim.New()
	m := New(k, 2, 2, nil, false)
	m.Send(&memtypes.Message{Src: 0, Dst: 3, Class: memtypes.ClassControl})
	defer func() {
		if recover() == nil {
			t.Fatal("delivery to node without handler should panic")
		}
	}()
	_ = k.Run(0)
}

func TestResetStats(t *testing.T) {
	k, m, _ := newTestMesh(t, 4, 4)
	m.Send(&memtypes.Message{Src: 0, Dst: 5, Class: memtypes.ClassControl})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().FlitHops == 0 {
		t.Fatal("expected traffic before reset")
	}
	m.ResetStats()
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("stats not zeroed: %+v", s)
	}
}

func TestIdealModeSkipsContention(t *testing.T) {
	k := sim.New()
	m := New(k, 4, 1, nil, true)
	var t1, t2 uint64
	m.Attach(1, HandlerFunc(func(msg *memtypes.Message) {
		if t1 == 0 {
			t1 = k.Now()
		} else {
			t2 = k.Now()
		}
	}))
	m.Send(&memtypes.Message{Src: 0, Dst: 1, Class: memtypes.ClassLineData})
	m.Send(&memtypes.Message{Src: 0, Dst: 1, Class: memtypes.ClassLineData})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 != DefaultSwitchLatency || t2 != DefaultSwitchLatency {
		t.Fatalf("ideal mode arrivals %d/%d, want both %d (no serialization)", t1, t2, DefaultSwitchLatency)
	}
	if s := m.Stats(); s.FlitHops != 10 || s.LinkWait != 0 {
		t.Fatalf("ideal stats = %+v", s)
	}
}

// fnActor adapts a function to a sim.Actor for tests.
type fnActor func()

func (f fnActor) Act(*memtypes.Message, uint64) { f() }
