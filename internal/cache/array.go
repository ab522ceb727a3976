// Package cache provides the generic set-associative storage used by the
// L1 caches and LLC banks of every protocol: a tag array with true-LRU
// replacement and per-line protocol payload.
//
// An array allocates only its set headers and occupancy masks up front;
// each set's lines are allocated the first time a line is placed in it
// (Victim, Allocate or SetState). A 64-core machine carries 16 MB of LLC
// capacity, of which a typical cell touches a few hundred lines, so
// backing sets on first use keeps machine construction and warm-start
// restore proportional to what a cell actually uses. An unbacked set
// behaves exactly like a set of invalid ways.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memtypes"
)

// Line is one cache line: tag state plus a protocol-defined payload P and
// the line's data words.
type Line[P any] struct {
	Valid bool
	Addr  memtypes.Addr // line-aligned address (only meaningful when Valid)
	Data  memtypes.Line
	State P

	lru uint64
}

// Array is a set-associative cache tag/data array with true-LRU
// replacement. P is the per-line protocol state (MESI state, VIPS dirty
// mask, ...).
type Array[P any] struct {
	// sets[s] is nil until set s first receives a line; see backed.
	sets    [][]Line[P]
	assoc   int
	setBits int
	tick    uint64

	// occ[s] is the set's valid-way bitmask (bit w = way w holds a valid
	// line). It exists for the scans — Digest, State, CountValid — which
	// would otherwise touch every way of every backed set, and a replay
	// digest scans every bank of the machine each mark. The mask lets
	// those skip empty sets without pulling the line backing into cache.
	// Maintained by Allocate/Invalidate/SetState and re-synced by ForEach
	// (whose visitor may clear Valid).
	occ []uint64

	// Accesses counts Lookup calls; Hits counts those that hit.
	Accesses uint64
	Hits     uint64
}

// NewArray builds an array of totalBytes capacity with the given
// associativity and 64-byte lines. totalBytes must be a power-of-two
// multiple of assoc*LineBytes.
func NewArray[P any](totalBytes, assoc int) *Array[P] {
	if totalBytes <= 0 || assoc <= 0 {
		panic("cache: size and associativity must be positive")
	}
	if assoc > 64 {
		panic(fmt.Sprintf("cache: associativity %d exceeds the 64-way occupancy mask", assoc))
	}
	lines := totalBytes / memtypes.LineBytes
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by assoc %d", lines, assoc))
	}
	numSets := lines / assoc
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: number of sets %d must be a power of two", numSets))
	}
	return &Array[P]{
		sets:    make([][]Line[P], numSets),
		assoc:   assoc,
		setBits: bits.TrailingZeros(uint(numSets)),
		occ:     make([]uint64, numSets),
	}
}

// Sets returns the number of sets.
func (a *Array[P]) Sets() int { return len(a.sets) }

// Assoc returns the associativity.
func (a *Array[P]) Assoc() int { return a.assoc }

func (a *Array[P]) setIndex(addr memtypes.Addr) int {
	return int(uint64(addr)/memtypes.LineBytes) & (len(a.sets) - 1)
}

// Lookup finds the line holding addr, touching LRU state on a hit. It
// returns nil on a miss.
//
//cbsim:hotpath
func (a *Array[P]) Lookup(addr memtypes.Addr) *Line[P] {
	a.Accesses++
	line := addr.Line()
	set := a.sets[a.setIndex(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == line {
			a.tick++
			set[i].lru = a.tick
			a.Hits++
			return &set[i]
		}
	}
	return nil
}

// Peek finds the line holding addr without touching LRU or access
// counters. It returns nil on a miss.
//
//cbsim:hotpath
func (a *Array[P]) Peek(addr memtypes.Addr) *Line[P] {
	line := addr.Line()
	set := a.sets[a.setIndex(addr)]
	for i := range set {
		if set[i].Valid && set[i].Addr == line {
			return &set[i]
		}
	}
	return nil
}

// backed returns set s, allocating its lines on first use.
//
//cbsim:hotpath
func (a *Array[P]) backed(s int) []Line[P] {
	if a.sets[s] == nil {
		//cbvet:alloc-ok once per set per array lifetime: sets are backed on first use so an untouched set costs no memory
		a.sets[s] = make([]Line[P], a.assoc)
	}
	return a.sets[s]
}

// victimWay returns the (set, way) Allocate would replace for addr: an
// invalid way if one exists, otherwise the LRU way. It backs the set.
//
//cbsim:hotpath
func (a *Array[P]) victimWay(addr memtypes.Addr) (int, int) {
	s := a.setIndex(addr)
	set := a.backed(s)
	victim := 0
	for i := range set {
		if !set[i].Valid {
			return s, i
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return s, victim
}

// Victim returns the line that Allocate would replace for addr: an invalid
// way if one exists, otherwise the LRU way. The returned line may be valid
// (the caller must write it back or invalidate it before reuse). Victim
// backs addr's set if it was not yet.
//
//cbsim:hotpath
func (a *Array[P]) Victim(addr memtypes.Addr) *Line[P] {
	s, w := a.victimWay(addr)
	return &a.sets[s][w]
}

// Allocate installs addr's line into the array, replacing the victim way.
// It returns the new line and, if a valid line was evicted, a copy of it.
// The new line's State and Data are zeroed; the caller fills them.
func (a *Array[P]) Allocate(addr memtypes.Addr) (line *Line[P], evicted *Line[P]) {
	if l := a.Peek(addr); l != nil {
		panic(fmt.Sprintf("cache: allocating already-present line %s", addr.Line()))
	}
	s, w := a.victimWay(addr)
	v := &a.sets[s][w]
	if v.Valid {
		ev := *v
		evicted = &ev
	}
	a.tick++
	*v = Line[P]{Valid: true, Addr: addr.Line(), lru: a.tick}
	a.occ[s] |= 1 << w
	return v, evicted
}

// Invalidate drops addr's line if present and reports whether it did.
func (a *Array[P]) Invalidate(addr memtypes.Addr) bool {
	line := addr.Line()
	s := a.setIndex(addr)
	set := a.sets[s]
	for w := range set {
		if set[w].Valid && set[w].Addr == line {
			set[w] = Line[P]{}
			a.occ[s] &^= 1 << w
			return true
		}
	}
	return false
}

// ForEach visits every valid line. The visitor may mutate the line's State
// and Data; setting Valid false invalidates it.
func (a *Array[P]) ForEach(fn func(*Line[P])) {
	for s, m := range a.occ {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			fn(&a.sets[s][w])
			if !a.sets[s][w].Valid {
				a.occ[s] &^= 1 << w
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array[P]) CountValid() int {
	n := 0
	for _, m := range a.occ {
		n += bits.OnesCount64(m)
	}
	return n
}
