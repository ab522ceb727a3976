package cache

import "math/bits"

// This file implements deterministic snapshot/restore for machine
// warm-starts (machine.Snapshot). Only the mutable state is captured —
// valid lines (including their unexported LRU stamps), the LRU tick, and
// the access counters; geometry is structural and must match at restore.
// Capturing valid lines only keeps zero-state snapshots tiny, and since
// sets are backed on first use, restoring one clears only the sets the
// previous run touched rather than the whole capacity.

// SavedLine locates one valid line by its physical position so restore
// reproduces way placement (and therefore future victim choice) exactly.
type SavedLine[P any] struct {
	Set  int
	Way  int
	Line Line[P]
}

// ArrayState is a deep copy of an Array's mutable state. The per-line
// protocol payload P is copied by value: every instantiation in the tree
// uses flat value types (MESI state enum, VIPS dirty masks), so the copy
// is deep.
type ArrayState[P any] struct {
	Lines    []SavedLine[P]
	Tick     uint64
	Accesses uint64
	Hits     uint64
}

// State captures the array's mutable state.
func (a *Array[P]) State() ArrayState[P] {
	st := ArrayState[P]{Tick: a.tick, Accesses: a.Accesses, Hits: a.Hits}
	for s, m := range a.occ {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			st.Lines = append(st.Lines, SavedLine[P]{Set: s, Way: w, Line: a.sets[s][w]})
		}
	}
	return st
}

// SetState overwrites the array's mutable state with a previously
// captured one. The array must have the geometry the state was captured
// from; out-of-range positions panic. Only backed sets are cleared, and
// only the sets the state places lines in are newly backed.
func (a *Array[P]) SetState(st ArrayState[P]) {
	for _, set := range a.sets {
		clear(set)
	}
	clear(a.occ)
	for _, sl := range st.Lines {
		a.backed(sl.Set)[sl.Way] = sl.Line
		if sl.Line.Valid {
			a.occ[sl.Set] |= 1 << sl.Way
		}
	}
	a.tick = st.Tick
	a.Accesses = st.Accesses
	a.Hits = st.Hits
}
