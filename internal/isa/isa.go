// Package isa defines the micro-op instruction set executed by the
// simulated in-order cores, mirroring the assembly of Figures 8-19 in the
// paper: ALU ops and branches, ordinary loads/stores, the racy
// ld_through/ld_cb/st_through/st_cb1/st_cb0 operations, atomics composed
// of {ld|ld_cb}&{st_cb0|st_cb1|st_cbA}, the self_invl/self_down fences,
// and the exponential back-off pseudo-ops used by the VIPS-M baseline.
//
// Programs are built with a Builder whose numbered labels (NewLabel,
// Bind) let the synchronization algorithms read almost line-for-line
// like the paper's figures. A built program is a flat, pointer-free
// []Instr; branch targets are instruction indices, which String prints
// as @N.
package isa

import (
	"fmt"

	"repro/internal/memtypes"
)

// Reg names one of the 32 general-purpose registers of a simulated core.
type Reg uint8

// NumRegs is the register file size.
const NumRegs = 32

// Conventional register names used by the synchronization library.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Opcode enumerates the micro-op kinds.
type Opcode uint8

const (
	Nop Opcode = iota

	// ALU and control flow. All take 1 cycle.
	Imm      // rd <- imm
	Mov      // rd <- rs
	Add      // rd <- rs + rt
	Addi     // rd <- rs + imm
	Sub      // rd <- rs - rt
	Xori     // rd <- rs ^ imm (sense reversal: not $s == xori $s,1)
	Beq      // if rs == rt goto target
	Bne      // if rs != rt goto target
	Beqi     // if rs == imm goto target
	Bnei     // if rs != imm goto target
	Jmp      // goto target
	Compute  // advance imm cycles of local work
	ComputeR // advance rs cycles of local work

	// Memory operations. Effective address = regs[Base] + Offset.
	Ld    // rd <- mem (DRF cached load)
	St    // mem <- rs (DRF cached store)
	LdT   // rd <- mem, ld_through
	LdCB  // rd <- mem, ld_cb (blocks in the callback directory)
	StT   // mem <- rs, st_through (st_cbA)
	StCB1 // mem <- rs, st_cb1
	StCB0 // mem <- rs, st_cb0
	RMW   // rd <- old value; atomic per RMWOp/LdCB/StMode fields

	SelfInvl // acquire fence: self-invalidate shared L1 contents
	SelfDown // release fence: self-downgrade (write through) dirty L1 data

	// Back-off pseudo-ops for the VIPS-M LLC-spinning baseline.
	BackoffReset // reset this core's back-off interval
	BackoffWait  // stall for the current interval, then grow it

	// Sync phase markers for statistics attribution (not architectural).
	SyncBegin // imm = SyncKind
	SyncEnd   // imm = SyncKind

	Done // thread finished
)

var opcodeNames = [...]string{
	Nop: "nop", Imm: "imm", Mov: "mov", Add: "add", Addi: "addi",
	Sub: "sub", Xori: "xori", Beq: "beq", Bne: "bne", Beqi: "beqi",
	Bnei: "bnei", Jmp: "jmp", Compute: "compute", ComputeR: "computer",
	Ld: "ld", St: "st", LdT: "ld_through", LdCB: "ld_cb",
	StT: "st_through", StCB1: "st_cb1", StCB0: "st_cb0", RMW: "rmw",
	SelfInvl: "self_invl", SelfDown: "self_down",
	BackoffReset: "backoff_reset", BackoffWait: "backoff_wait",
	SyncBegin: "sync_begin", SyncEnd: "sync_end", Done: "done",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// IsMem reports whether the opcode accesses memory through the L1 port.
func (o Opcode) IsMem() bool {
	switch o {
	case Ld, St, LdT, LdCB, StT, StCB1, StCB0, RMW, SelfInvl, SelfDown:
		return true
	}
	return false
}

// SyncKind labels a synchronization phase for latency/LLC-access
// attribution (Figures 1 and 20).
type SyncKind uint8

const (
	SyncNone SyncKind = iota
	SyncAcquire
	SyncRelease
	SyncBarrier
	SyncWait
	SyncSignal
	NumSyncKinds
)

var syncKindNames = [...]string{
	SyncNone: "none", SyncAcquire: "acquire", SyncRelease: "release",
	SyncBarrier: "barrier", SyncWait: "wait", SyncSignal: "signal",
}

func (s SyncKind) String() string {
	if int(s) < len(syncKindNames) {
		return syncKindNames[s]
	}
	return fmt.Sprintf("SyncKind(%d)", uint8(s))
}

// Instr is one decoded micro-op. Wide fields come first so the struct
// packs into 56 bytes, and it holds no pointer: a program is plain data
// the garbage collector never scans.
type Instr struct {
	ImmVal uint64
	Target int // resolved branch target (instruction index)

	// Memory addressing: effective address = regs[Base] + Offset.
	Offset int64

	// RMW operands (Op == RMW).
	Expect uint64 // expected value (t&s, cas)
	ArgImm uint64 // argument immediate (if !ArgIsReg)

	Op         Opcode
	Rd, Rs, Rt Reg
	Base       Reg

	// RMW description (Op == RMW).
	RMWOp    memtypes.RMWOp
	RMWLdCB  bool             // load half is ld_cb
	RMWSt    memtypes.CBWrite // store half semantics
	ArgReg   Reg              // argument register (if ArgIsReg)
	ArgIsReg bool
}

func (in Instr) String() string {
	switch in.Op {
	case Imm:
		return fmt.Sprintf("imm r%d, %d", in.Rd, in.ImmVal)
	case Beq, Bne:
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Rs, in.Rt, in.Target)
	case Beqi, Bnei:
		return fmt.Sprintf("%s r%d, %d, @%d", in.Op, in.Rs, in.ImmVal, in.Target)
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case Ld, LdT, LdCB:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Offset, in.Base)
	case St, StT, StCB1, StCB0:
		return fmt.Sprintf("%s %d(r%d), r%d", in.Op, in.Offset, in.Base, in.Rs)
	case RMW:
		ld := "ld"
		if in.RMWLdCB {
			ld = "ld_cb"
		}
		return fmt.Sprintf("%s{%s&st_%s} r%d, %d(r%d)", in.RMWOp, ld, in.RMWSt, in.Rd, in.Offset, in.Base)
	default:
		return in.Op.String()
	}
}

// Program is an executable sequence of micro-ops.
type Program struct {
	Ins []Instr
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Ins) }
