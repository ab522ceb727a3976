package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/memtypes"
)

// This file implements deterministic snapshot/restore for machine
// warm-starts (machine.Snapshot). A tile may only be snapshotted at
// quiescence with no transient protocol state: no pending L1 operation,
// no armed monitor (an armed monitor at kernel drain is a deadlock
// anyway), and no busy directory lines or deferred requests. These are
// plain data — the pending entry holds the core's request and its
// completion target, a busy line holds the request message it will
// grant — but they are paired with scheduled kernel events and in-flight
// messages, which a snapshot cannot capture. For the states snapshots
// are taken from — a freshly built machine, or a machine whose programs
// ran to completion and quiesced — all of these are empty by
// construction.

// L1State is a deep copy of a quiescent MESI L1's mutable state.
type L1State struct {
	Arr      cache.ArrayState[l1Line]
	Stats    L1Stats
	MonStats MonitorStats
}

// State captures the L1's mutable state, failing if a memory operation
// or monitor is outstanding.
func (l *L1) State() (L1State, error) {
	if l.pending.req != nil {
		return L1State{}, fmt.Errorf("mesi: L1 %d has a pending operation", l.id)
	}
	if l.monitor.armed {
		return L1State{}, fmt.Errorf("mesi: L1 %d has an armed monitor", l.id)
	}
	return L1State{Arr: l.arr.State(), Stats: l.stats, MonStats: l.monStats}, nil
}

// SetState overwrites the L1's mutable state, dropping any pending
// operation and disarming the monitor.
func (l *L1) SetState(st L1State) {
	l.arr.SetState(st.Arr)
	l.pending = l1Pending{}
	l.respTo = nil
	l.monitor = monitorState{}
	l.stats = st.Stats
	l.monStats = st.MonStats
}

// SavedDirLine is one line's directory state.
type SavedDirLine struct {
	Addr    memtypes.Addr
	Owner   int
	Sharers uint64
}

// DirState is a deep copy of a quiescent directory bank's mutable state.
type DirState struct {
	Lines []SavedDirLine
	Data  mem.BankState
	Stats DirStats
}

// State captures the directory's mutable state, failing if a transaction
// is in flight.
func (d *Dir) State() (DirState, error) {
	if len(d.busy) != 0 || len(d.deferq) != 0 {
		return DirState{}, fmt.Errorf("mesi: dir %d has in-flight transactions", d.id)
	}
	st := DirState{Data: d.data.State(), Stats: d.stats}
	st.Lines = make([]SavedDirLine, 0, len(d.lines))
	//cbvet:unordered collected into a slice for the snapshot; restore rebuilds a map, so order never reaches simulation
	for a, ln := range d.lines {
		st.Lines = append(st.Lines, SavedDirLine{Addr: a, Owner: ln.owner, Sharers: ln.sharers})
	}
	return st, nil
}

// SetState overwrites the directory's mutable state, dropping any
// in-flight transactions.
func (d *Dir) SetState(st DirState) {
	clear(d.lines)
	clear(d.busy)
	clear(d.deferq)
	for _, sl := range st.Lines {
		d.lines[sl.Addr] = &dirLine{owner: sl.Owner, sharers: sl.Sharers}
	}
	d.data.SetState(st.Data)
	d.stats = st.Stats
}

// TileState bundles the two controllers' states.
type TileState struct {
	L1  L1State
	Dir DirState
}

// State captures the tile's mutable state as a TileState.
func (t *Tile) State() (any, error) {
	l1, err := t.L1.State()
	if err != nil {
		return nil, err
	}
	dir, err := t.Dir.State()
	if err != nil {
		return nil, err
	}
	return TileState{L1: l1, Dir: dir}, nil
}

// SetState overwrites the tile's mutable state from a TileState.
func (t *Tile) SetState(st any) {
	s := st.(TileState)
	t.L1.SetState(s.L1)
	t.Dir.SetState(s.Dir)
}
