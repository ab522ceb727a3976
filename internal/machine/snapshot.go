package machine

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// This file implements deterministic machine snapshots for warm-start
// sweeps: a deep copy of all mutable simulation state, captured at
// quiescence and restorable into any machine of a compatible
// configuration.
//
// Snapshots are legal only at quiescence — no pending kernel events and
// no in-flight network messages. Transient protocol state (pending L1
// operations, busy directory lines, parked callback reads, armed
// monitors) is plain data, but each piece is paired with a scheduled
// event or an in-flight message that a snapshot cannot capture; at
// quiescence all of it is provably empty, and each component's State()
// checks its own residue and fails otherwise. The two states sweeps
// snapshot — a freshly built machine before Load, and a machine whose
// programs ran to completion — are quiescent by construction.
//
// Restore is valid from ANY machine state: it overwrites every mutable
// field, drops whatever transient state the target held, and detaches
// observability (trace sinks reference the run they were attached for;
// AttachTrace reinstalls fresh observers on the next attach). A machine
// restored from a snapshot is behaviorally byte-identical to the machine
// the snapshot was taken from: same kernel clock and sequence counter,
// same caches, directories, link clocks, chaos PRNG position, and
// counters. Identity is pinned by TestSnapshotRestoreIdentity and the
// warm-vs-cold sweep tests in internal/experiments.

// ErrNotQuiescent reports a Snapshot attempted on a machine that is not
// quiescent. Match with errors.Is; the concrete error is a
// *NotQuiescentError carrying the in-flight counts.
var ErrNotQuiescent = errors.New("machine: not quiescent")

// NotQuiescentError is the diagnostic payload behind ErrNotQuiescent:
// where the machine was and how much transient state blocked the
// snapshot.
type NotQuiescentError struct {
	// Cycle is the kernel clock at the refused snapshot.
	Cycle uint64
	// PendingEvents counts scheduled-but-unfired kernel events.
	PendingEvents int
	// LiveMessages counts in-flight NoC messages.
	LiveMessages int
	// Detail names component-level transient state (a pending L1
	// operation, a busy directory line) when the queue counts alone
	// don't explain the refusal.
	Detail string
}

// Is makes errors.Is(err, ErrNotQuiescent) match. It also matches
// sim.ErrNotQuiescent, which pre-dated this sentinel, so callers
// checking either keep working.
func (e *NotQuiescentError) Is(target error) bool {
	return target == ErrNotQuiescent || target == sim.ErrNotQuiescent
}

func (e *NotQuiescentError) Error() string {
	msg := fmt.Sprintf("machine: not quiescent at cycle %d: %d pending events, %d in-flight messages",
		e.Cycle, e.PendingEvents, e.LiveMessages)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// notQuiescent builds the error with the machine's current in-flight
// counts.
func (m *Machine) notQuiescent(detail string) *NotQuiescentError {
	return &NotQuiescentError{
		Cycle:         m.K.Now(),
		PendingEvents: m.K.Pending(),
		LiveMessages:  m.Mesh.LiveMessages(),
		Detail:        detail,
	}
}

// Snapshot is a deep, deterministic copy of a quiescent machine's
// mutable state.
type Snapshot struct {
	cfg      Config
	kernel   sim.KernelState
	mesh     noc.MeshState
	store    mem.StoreState
	cores    []cpu.CoreState
	tiles    []any
	chaos    *chaos.EngineState
	loaded   int
	finished int
}

// Snapshot captures the machine's complete mutable state. It fails
// unless the machine is quiescent: no pending events, no in-flight
// messages, and no transient protocol state anywhere.
// The error on a non-quiescent machine matches ErrNotQuiescent and
// carries the pending-event and in-flight-message counts.
func (m *Machine) Snapshot() (*Snapshot, error) {
	kernel, err := m.K.State()
	if err != nil {
		return nil, m.notQuiescent("")
	}
	mesh, err := m.Mesh.State()
	if err != nil {
		return nil, m.notQuiescent("")
	}
	s := &Snapshot{
		cfg:      m.cfg,
		kernel:   kernel,
		mesh:     mesh,
		store:    m.Store.State(),
		loaded:   m.loaded,
		finished: m.finished,
	}
	for _, c := range m.Cores {
		s.cores = append(s.cores, c.State())
	}
	for _, t := range m.tiles {
		st, err := t.State()
		if err != nil {
			return nil, m.notQuiescent(err.Error())
		}
		s.tiles = append(s.tiles, st)
	}
	if m.chaos != nil {
		cs := m.chaos.State()
		s.chaos = &cs
	}
	return s, nil
}

// configsCompatible reports whether a machine built from a can host a
// snapshot taken from a machine built from b: every structural and
// behavioral parameter must match. Chaos specs are compared by value —
// two machines configured with equal specs at different addresses are
// interchangeable.
func configsCompatible(a, b Config) bool {
	ca, cb := a.Chaos, b.Chaos
	a.Chaos, b.Chaos = nil, nil
	if a != b {
		return false
	}
	if ca.Active() != cb.Active() {
		return false
	}
	return !ca.Active() || *ca == *cb
}

// Restore overwrites the machine's mutable state with a previously
// captured snapshot, detaching any attached trace sinks (AttachTrace
// reinstalls observers on the next attach). The machine may be in any
// state; its configuration must match the snapshot's. After Restore the
// machine's future behavior is byte-identical to that of the snapshot's
// source machine at capture time.
func (m *Machine) Restore(s *Snapshot) error {
	if !configsCompatible(m.cfg, s.cfg) {
		return fmt.Errorf("machine: restore: config mismatch (snapshot %+v, machine %+v)", s.cfg, m.cfg)
	}
	m.DetachTrace()
	m.K.SetState(s.kernel)
	m.Mesh.SetState(s.mesh)
	m.Store.SetState(s.store)
	for i, c := range m.Cores {
		c.SetState(s.cores[i])
	}
	for i, t := range m.tiles {
		t.SetState(s.tiles[i])
	}
	if m.chaos != nil && s.chaos != nil {
		m.chaos.SetState(*s.chaos)
	}
	m.loaded = s.loaded
	m.finished = s.finished
	return nil
}
