package isa

import (
	"fmt"

	"repro/internal/memtypes"
)

// Label is a branch target in the program a Builder assembles. NewLabel
// creates one, Bind places it at the current position, and branch
// methods take it before or after it is bound. Labels are numbered per
// builder and are invalid after Reset.
type Label int32

// unbound marks a created label that Bind has not placed yet.
const unbound = -1

// Builder assembles a Program with numbered labels. Methods append one
// instruction each and return the builder for chaining. Label references
// may precede their definition; Build resolves them. A builder can be
// Reset and reused, so generating many programs grows its buffers once.
type Builder struct {
	ins []Instr
	// labels[l] is label l's instruction index, or unbound.
	labels []int
	// fixups lists, in emission order, the instructions whose Target
	// still holds a label number for Build to resolve.
	fixups []int
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset empties the builder for a new program, keeping its buffers.
// Labels created before Reset must not be used after it.
func (b *Builder) Reset() {
	b.ins = b.ins[:0]
	b.labels = b.labels[:0]
	b.fixups = b.fixups[:0]
}

// NewLabel creates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, unbound)
	return Label(len(b.labels) - 1)
}

// Bind places l at the current position. Binding a label twice, or a
// number NewLabel has not returned since the last Reset, panics.
func (b *Builder) Bind(l Label) *Builder {
	if l < 0 || int(l) >= len(b.labels) {
		panic(fmt.Sprintf("isa: label L%d was not created by this builder", l))
	}
	if b.labels[l] != unbound {
		panic(fmt.Sprintf("isa: label L%d bound twice", l))
	}
	b.labels[l] = len(b.ins)
	return b
}

func (b *Builder) emit(in Instr) *Builder {
	b.ins = append(b.ins, in)
	return b
}

func (b *Builder) emitBranch(in Instr, l Label) *Builder {
	in.Target = int(l)
	b.fixups = append(b.fixups, len(b.ins))
	return b.emit(in)
}

// Nop appends a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: Nop}) }

// Imm loads an immediate: rd <- v.
func (b *Builder) Imm(rd Reg, v uint64) *Builder {
	return b.emit(Instr{Op: Imm, Rd: rd, ImmVal: v})
}

// Mov copies a register: rd <- rs.
func (b *Builder) Mov(rd, rs Reg) *Builder {
	return b.emit(Instr{Op: Mov, Rd: rd, Rs: rs})
}

// Add computes rd <- rs + rt.
func (b *Builder) Add(rd, rs, rt Reg) *Builder {
	return b.emit(Instr{Op: Add, Rd: rd, Rs: rs, Rt: rt})
}

// Addi computes rd <- rs + imm (imm may encode negative via two's
// complement).
func (b *Builder) Addi(rd, rs Reg, imm uint64) *Builder {
	return b.emit(Instr{Op: Addi, Rd: rd, Rs: rs, ImmVal: imm})
}

// Sub computes rd <- rs - rt.
func (b *Builder) Sub(rd, rs, rt Reg) *Builder {
	return b.emit(Instr{Op: Sub, Rd: rd, Rs: rs, Rt: rt})
}

// Xori computes rd <- rs ^ imm. Xori(s, s, 1) is the paper's "not $s".
func (b *Builder) Xori(rd, rs Reg, imm uint64) *Builder {
	return b.emit(Instr{Op: Xori, Rd: rd, Rs: rs, ImmVal: imm})
}

// Beq branches to l when rs == rt.
func (b *Builder) Beq(rs, rt Reg, l Label) *Builder {
	return b.emitBranch(Instr{Op: Beq, Rs: rs, Rt: rt}, l)
}

// Bne branches to l when rs != rt.
func (b *Builder) Bne(rs, rt Reg, l Label) *Builder {
	return b.emitBranch(Instr{Op: Bne, Rs: rs, Rt: rt}, l)
}

// Beqz branches to l when rs == 0.
func (b *Builder) Beqz(rs Reg, l Label) *Builder {
	return b.emitBranch(Instr{Op: Beqi, Rs: rs, ImmVal: 0}, l)
}

// Bnez branches to l when rs != 0.
func (b *Builder) Bnez(rs Reg, l Label) *Builder {
	return b.emitBranch(Instr{Op: Bnei, Rs: rs, ImmVal: 0}, l)
}

// Beqi branches to l when rs == imm.
func (b *Builder) Beqi(rs Reg, imm uint64, l Label) *Builder {
	return b.emitBranch(Instr{Op: Beqi, Rs: rs, ImmVal: imm}, l)
}

// Bnei branches to l when rs != imm.
func (b *Builder) Bnei(rs Reg, imm uint64, l Label) *Builder {
	return b.emitBranch(Instr{Op: Bnei, Rs: rs, ImmVal: imm}, l)
}

// Jmp branches unconditionally.
func (b *Builder) Jmp(l Label) *Builder {
	return b.emitBranch(Instr{Op: Jmp}, l)
}

// Compute models imm cycles of local, memory-free work.
func (b *Builder) Compute(cycles uint64) *Builder {
	return b.emit(Instr{Op: Compute, ImmVal: cycles})
}

// ComputeR models rs cycles of local work.
func (b *Builder) ComputeR(rs Reg) *Builder {
	return b.emit(Instr{Op: ComputeR, Rs: rs})
}

// Ld issues a DRF cached load: rd <- mem[rbase+off].
func (b *Builder) Ld(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: Ld, Rd: rd, Base: base, Offset: off})
}

// St issues a DRF cached store: mem[rbase+off] <- rs.
func (b *Builder) St(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: St, Rs: rs, Base: base, Offset: off})
}

// LdThrough issues a racy ld_through.
func (b *Builder) LdThrough(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: LdT, Rd: rd, Base: base, Offset: off})
}

// LdCB issues a blocking callback read.
func (b *Builder) LdCB(rd, base Reg, off int64) *Builder {
	return b.emit(Instr{Op: LdCB, Rd: rd, Base: base, Offset: off})
}

// StThrough issues a racy st_through (st_cbA).
func (b *Builder) StThrough(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StT, Rs: rs, Base: base, Offset: off})
}

// StCB1 issues a st_cb1 (service one callback).
func (b *Builder) StCB1(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StCB1, Rs: rs, Base: base, Offset: off})
}

// StCB0 issues a st_cb0 (service no callbacks).
func (b *Builder) StCB0(base Reg, off int64, rs Reg) *Builder {
	return b.emit(Instr{Op: StCB0, Rs: rs, Base: base, Offset: off})
}

// RMWSpec describes an atomic for the RMW builder methods.
type RMWSpec struct {
	Op       memtypes.RMWOp
	LdCB     bool             // load half is ld_cb
	St       memtypes.CBWrite // store half semantics
	Expect   uint64           // expected value (t&s / cas)
	ArgReg   Reg              // argument register if ArgIsReg
	ArgImm   uint64           // argument immediate otherwise
	ArgIsReg bool
}

// RMW issues an atomic on mem[rbase+off]; rd receives the old value.
func (b *Builder) RMW(rd, base Reg, off int64, spec RMWSpec) *Builder {
	return b.emit(Instr{
		Op: RMW, Rd: rd, Base: base, Offset: off,
		RMWOp: spec.Op, RMWLdCB: spec.LdCB, RMWSt: spec.St,
		Expect: spec.Expect, ArgReg: spec.ArgReg, ArgImm: spec.ArgImm,
		ArgIsReg: spec.ArgIsReg,
	})
}

// TAS issues t&s rd, L, expect, set: the classic test&set with the given
// store-half callback semantics.
func (b *Builder) TAS(rd, base Reg, off int64, ldCB bool, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWTestAndSet, LdCB: ldCB, St: st, Expect: 0, ArgImm: 1,
	})
}

// FetchStore issues f&s rd, L, argReg (unconditional swap, CLH lock).
func (b *Builder) FetchStore(rd, base Reg, off int64, arg Reg, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWSwap, St: st, ArgReg: arg, ArgIsReg: true,
	})
}

// FetchAdd issues f&a rd, C, delta with the given store semantics.
func (b *Builder) FetchAdd(rd, base Reg, off int64, delta uint64, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{
		Op: memtypes.RMWFetchAdd, St: st, ArgImm: delta,
	})
}

// TestDec issues t&d rd, C (decrement if non-zero; rd gets the old value).
func (b *Builder) TestDec(rd, base Reg, off int64, st memtypes.CBWrite) *Builder {
	return b.RMW(rd, base, off, RMWSpec{Op: memtypes.RMWTestAndDec, St: st})
}

// SelfInvl emits the acquire fence.
func (b *Builder) SelfInvl() *Builder { return b.emit(Instr{Op: SelfInvl}) }

// SelfDown emits the release fence.
func (b *Builder) SelfDown() *Builder { return b.emit(Instr{Op: SelfDown}) }

// BackoffReset resets the core's exponential back-off interval.
func (b *Builder) BackoffReset() *Builder { return b.emit(Instr{Op: BackoffReset}) }

// BackoffWait stalls for the current back-off interval and doubles it (up
// to the configured cap).
func (b *Builder) BackoffWait() *Builder { return b.emit(Instr{Op: BackoffWait}) }

// SyncBegin marks the start of a synchronization phase for statistics.
func (b *Builder) SyncBegin(kind SyncKind) *Builder {
	return b.emit(Instr{Op: SyncBegin, ImmVal: uint64(kind)})
}

// SyncEnd marks the end of a synchronization phase.
func (b *Builder) SyncEnd(kind SyncKind) *Builder {
	return b.emit(Instr{Op: SyncEnd, ImmVal: uint64(kind)})
}

// Done marks thread completion.
func (b *Builder) Done() *Builder { return b.emit(Instr{Op: Done}) }

// Build resolves labels and returns the program, copied at its exact
// size so the builder can be reset and reused. Unresolved labels are an
// error; with several unresolved labels the one at the lowest
// instruction index is reported, deterministically.
func (b *Builder) Build() (*Program, error) {
	ins := make([]Instr, len(b.ins))
	copy(ins, b.ins)
	for _, idx := range b.fixups {
		l := ins[idx].Target
		if l < 0 || l >= len(b.labels) || b.labels[l] == unbound {
			return nil, fmt.Errorf("isa: undefined label L%d at instruction %d", l, idx)
		}
		ins[idx].Target = b.labels[l]
	}
	return &Program{Ins: ins}, nil
}

// MustBuild is Build that panics on error, for statically known programs.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
