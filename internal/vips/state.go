package vips

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// This file implements deterministic snapshot/restore for machine
// warm-starts (machine.Snapshot). A tile may only be snapshotted at
// quiescence with no transient protocol state: no pending L1 operation or
// unacknowledged write-through, no locked LLC lines or deferred
// operations, nothing parked in the callback directory, and no engaged
// VIPS-M blocking bits. These are plain data — the pending entry holds
// the core's request and completion target, queues hold request
// messages — but each is paired with scheduled kernel events or
// in-flight messages, which a snapshot cannot capture. For the
// states snapshots are taken from — a freshly built machine, or a
// machine whose programs ran to completion and quiesced — all of these
// are empty by construction.

// L1State is a deep copy of a quiescent VIPS L1's mutable state.
type L1State struct {
	Arr   cache.ArrayState[l1Line]
	Stats L1Stats
}

// State captures the L1's mutable state, failing if an operation or
// write-through is outstanding.
func (l *L1) State() (L1State, error) {
	if l.pending.req != nil {
		return L1State{}, fmt.Errorf("vips: L1 %d has a pending operation", l.id)
	}
	if l.wtOutstanding != 0 {
		return L1State{}, fmt.Errorf("vips: L1 %d has %d unacknowledged write-throughs", l.id, l.wtOutstanding)
	}
	return L1State{Arr: l.arr.State(), Stats: l.stats}, nil
}

// SetState overwrites the L1's mutable state, dropping any pending
// operation.
func (l *L1) SetState(st L1State) {
	l.arr.SetState(st.Arr)
	l.pending = pendingOp{}
	l.respTo = nil
	l.wtOutstanding = 0
	l.stats = st.Stats
}

// BankState is a deep copy of a quiescent Bank's mutable state.
type BankState struct {
	Data  mem.BankState
	CBDir *core.DirectoryState // nil in back-off mode
	Stats BankCtrlStats
}

// State captures the bank's mutable state, failing on any transient
// protocol state.
func (b *Bank) State() (BankState, error) {
	if len(b.busy) != 0 || len(b.deferq) != 0 {
		return BankState{}, fmt.Errorf("vips: bank %d has locked lines", b.id)
	}
	if len(b.parked) != 0 {
		return BankState{}, fmt.Errorf("vips: bank %d has parked callback reads", b.id)
	}
	//cbvet:unordered existence check only, order-independent
	for a, st := range b.queueLocks {
		if st.blocked || len(st.queue) > 0 {
			return BankState{}, fmt.Errorf("vips: bank %d has an engaged queue lock at %s", b.id, a)
		}
	}
	st := BankState{Data: b.data.State(), Stats: b.stats}
	if b.cbdir != nil {
		ds := b.cbdir.State()
		st.CBDir = &ds
	}
	return st, nil
}

// SetState overwrites the bank's mutable state, dropping any transient
// protocol state (inert queue-lock entries are semantically equal to
// absent ones, so clearing the map is exact).
func (b *Bank) SetState(st BankState) {
	b.data.SetState(st.Data)
	if b.cbdir != nil && st.CBDir != nil {
		b.cbdir.SetState(*st.CBDir)
	}
	clear(b.busy)
	clear(b.deferq)
	clear(b.parked)
	clear(b.queueLocks)
	b.stats = st.Stats
}

// TileState bundles the two controllers' states.
type TileState struct {
	L1   L1State
	Bank BankState
}

// State captures the tile's mutable state.
func (t *Tile) State() (TileState, error) {
	l1, err := t.L1.State()
	if err != nil {
		return TileState{}, err
	}
	bank, err := t.Bank.State()
	if err != nil {
		return TileState{}, err
	}
	return TileState{L1: l1, Bank: bank}, nil
}

// SetState overwrites the tile's mutable state.
func (t *Tile) SetState(st TileState) {
	t.L1.SetState(st.L1)
	t.Bank.SetState(st.Bank)
}
