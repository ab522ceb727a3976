package cpu

import "repro/internal/isa"

// This file implements deterministic snapshot/restore for machine
// warm-starts (machine.Snapshot). A core's only transient state is its
// in-flight memory operation: the request slot and completion fields in
// Core, which the L1's pending entry points at (and whose State()
// refuses to snapshot). Its resumptions are kernel actor events. At
// machine quiescence neither exists, so a core's state is purely
// architectural and can always be captured.

// CoreState is a deep copy of a Core's architectural state. The program
// is shared by pointer: isa.Programs are immutable after construction.
type CoreState struct {
	Prog         *isa.Program
	Regs         [isa.NumRegs]uint64
	PC           int
	BackoffCount int
	SyncStack    []syncFrame
	Started      bool
	Done         bool
	Stats        Stats
}

// State captures the core's architectural state.
func (c *Core) State() CoreState {
	st := CoreState{
		Prog:         c.prog,
		Regs:         c.regs,
		PC:           c.pc,
		BackoffCount: c.backoffCount,
		Started:      c.started,
		Done:         c.done,
		Stats:        c.stats,
	}
	if len(c.syncStack) > 0 {
		st.SyncStack = append([]syncFrame(nil), c.syncStack...)
	}
	return st
}

// SetState overwrites the core's architectural state with a previously
// captured one. Structural wiring (kernel, port, classifier, onDone,
// observer) is untouched.
func (c *Core) SetState(st CoreState) {
	c.prog = st.Prog
	c.regs = st.Regs
	c.pc = st.PC
	c.backoffCount = st.BackoffCount
	c.syncStack = append(c.syncStack[:0], st.SyncStack...)
	c.started = st.Started
	c.done = st.Done
	c.stats = st.Stats
}
