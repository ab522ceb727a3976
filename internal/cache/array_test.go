package cache

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/memtypes"
)

type testState struct{ v int }

func TestGeometry(t *testing.T) {
	a := NewArray[testState](32*1024, 4) // the paper's L1
	if a.Sets() != 128 {
		t.Fatalf("32KB/4-way: sets = %d, want 128", a.Sets())
	}
	if a.Assoc() != 4 {
		t.Fatalf("assoc = %d, want 4", a.Assoc())
	}
	b := NewArray[testState](256*1024, 16) // the paper's LLC bank
	if b.Sets() != 256 {
		t.Fatalf("256KB/16-way: sets = %d, want 256", b.Sets())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	a := NewArray[testState](4096, 2)
	addr := memtypes.Addr(0x1000)
	if a.Lookup(addr) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	line, ev := a.Allocate(addr)
	if ev != nil {
		t.Fatal("eviction from empty cache")
	}
	line.State.v = 42
	line.Data[3] = 99
	got := a.Lookup(addr + 8) // any address within the same line
	if got == nil {
		t.Fatal("miss after allocate")
	}
	if got.State.v != 42 || got.Data[3] != 99 {
		t.Fatal("payload lost")
	}
	if a.Accesses != 2 || a.Hits != 1 {
		t.Fatalf("accesses=%d hits=%d, want 2/1", a.Accesses, a.Hits)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: 128 bytes total.
	a := NewArray[testState](128, 2)
	a0 := memtypes.Addr(0)
	a1 := memtypes.Addr(0x1000)
	a2 := memtypes.Addr(0x2000)
	a.Allocate(a0)
	a.Allocate(a1)
	a.Lookup(a0) // a0 now MRU, a1 LRU
	_, ev := a.Allocate(a2)
	if ev == nil || ev.Addr != a1 {
		t.Fatalf("evicted %+v, want line %s", ev, a1)
	}
	if a.Peek(a0) == nil || a.Peek(a2) == nil || a.Peek(a1) != nil {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := NewArray[testState](128, 2)
	a.Allocate(0)
	v := a.Victim(0x1000)
	if v.Valid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray[testState](4096, 4)
	a.Allocate(0x40)
	if !a.Invalidate(0x40) {
		t.Fatal("invalidate missed present line")
	}
	if a.Invalidate(0x40) {
		t.Fatal("invalidate hit absent line")
	}
	if a.CountValid() != 0 {
		t.Fatal("line still valid")
	}
}

func TestDoubleAllocatePanics(t *testing.T) {
	a := NewArray[testState](4096, 4)
	a.Allocate(0x80)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate did not panic")
		}
	}()
	a.Allocate(0x80)
}

func TestForEach(t *testing.T) {
	a := NewArray[testState](4096, 4)
	addrs := []memtypes.Addr{0, 0x40, 0x80, 0x1000}
	for _, ad := range addrs {
		a.Allocate(ad)
	}
	// Self-invalidation sweep: drop everything.
	a.ForEach(func(l *Line[testState]) { l.Valid = false })
	if a.CountValid() != 0 {
		t.Fatalf("%d lines survive sweep", a.CountValid())
	}
}

// Property: a cache never holds two lines with the same address, never
// exceeds its capacity, and a Lookup hit always returns the most recently
// allocated content for that line.
func TestPropertyCacheConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewArray[testState](2048, 4) // 8 sets x 4 ways
		shadow := map[memtypes.Addr]int{} // line -> last written state
		next := 1
		for _, op := range ops {
			addr := memtypes.Addr(op) * memtypes.WordBytes
			line := addr.Line()
			if l := a.Lookup(addr); l != nil {
				if shadow[line] != l.State.v {
					return false // stale or corrupted content
				}
			} else {
				l, ev := a.Allocate(addr)
				if ev != nil {
					delete(shadow, ev.Addr)
				}
				l.State.v = next
				shadow[line] = next
				next++
			}
			if a.CountValid() > 32 {
				return false
			}
			if len(shadow) != a.CountValid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	a := NewArray[testState](32*1024, 4)
	a.Allocate(0x40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(0x40)
	}
}

// TestNewArrayBacksNoLines pins that construction allocates only the set
// headers and occupancy masks: an LLC bank's 256 KB of line capacity is
// backed set by set as lines arrive.
func TestNewArrayBacksNoLines(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewArray[testState](256*1024, 16)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 64*1024 {
		t.Fatalf("fresh 256 KB 16-way array allocates %d bytes, want < 64 KB", bytes)
	}
	if a.Sets() != 256 {
		t.Fatalf("sets = %d, want 256", a.Sets())
	}
}

// TestUnbackedSets checks that a set with no line storage behaves as a
// set of invalid ways, that placing a line backs it, and that snapshots
// round-trip through arrays with different backed sets.
func TestUnbackedSets(t *testing.T) {
	a := NewArray[testState](4096, 4) // 16 sets
	if a.Lookup(0x40) != nil || a.Peek(0x40) != nil || a.Invalidate(0x40) {
		t.Fatal("unbacked set reported a line")
	}
	if a.Accesses != 1 || a.Hits != 0 {
		t.Fatalf("accesses=%d hits=%d after a miss, want 1/0", a.Accesses, a.Hits)
	}
	if v := a.Victim(0x80); v == nil || v.Valid {
		t.Fatalf("victim in an unbacked set = %+v, want an invalid way", v)
	}
	if a.sets[a.setIndex(0x80)] == nil {
		t.Fatal("Victim did not back its set")
	}
	l, ev := a.Allocate(0x40)
	if ev != nil {
		t.Fatal("eviction from an unbacked set")
	}
	l.State.v = 7
	l.Data[1] = 11
	a.Allocate(0x440) // same set as 0x40 (16 sets of 64 B)
	if got := a.Lookup(0x40); got == nil || got.State.v != 7 || got.Data[1] != 11 {
		t.Fatalf("lookup after allocate = %+v", got)
	}

	// State into a fresh array: same lines, same digest-relevant state.
	st := a.State()
	b := NewArray[testState](4096, 4)
	b.SetState(st)
	if !reflect.DeepEqual(b.State(), st) {
		t.Fatalf("round trip: got %+v, want %+v", b.State(), st)
	}
	for s := range b.sets {
		if b.sets[s] != nil && b.occ[s] == 0 {
			t.Fatalf("SetState backed set %d with no line in it", s)
		}
	}

	// SetState on a used array leaves nothing of its old contents.
	c := NewArray[testState](4096, 4)
	for _, ad := range []memtypes.Addr{0x40, 0x80, 0xc0, 0x440, 0x840} {
		l, _ := c.Allocate(ad)
		l.State.v = 99
	}
	c.SetState(st)
	if !reflect.DeepEqual(c.State(), st) {
		t.Fatalf("restore over a used array: got %+v, want %+v", c.State(), st)
	}
	if c.Peek(0x80) != nil || c.Peek(0xc0) != nil || c.Peek(0x840) != nil {
		t.Fatal("stale line survived SetState")
	}
	for s, set := range c.sets {
		for w := range set {
			if set[w].Valid != (c.occ[s]&(1<<w) != 0) {
				t.Fatalf("set %d way %d: Valid=%v disagrees with the occupancy mask", s, w, set[w].Valid)
			}
			if !set[w].Valid && set[w] != (Line[testState]{}) {
				t.Fatalf("set %d way %d: invalid way keeps stale content %+v", s, w, set[w])
			}
		}
	}
	if c.CountValid() != 2 {
		t.Fatalf("CountValid = %d after restore, want 2", c.CountValid())
	}
}
