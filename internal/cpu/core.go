// Package cpu models the simple in-order cores of the simulated CMP
// (Table 2: 64 in-order cores, 1-cycle L1). A core interprets a micro-op
// program: ALU ops and taken branches cost one cycle, Compute ops model
// local work, and memory ops block until the L1 port responds — exactly
// one outstanding memory operation per core, matching the paper's
// blocking racy operations ("no later _through operation or atomic can be
// initiated until they complete", Section 3.2).
package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config holds per-core execution parameters.
type Config struct {
	// BackoffBase is the initial exponential back-off interval in
	// QUARTER cycles: the wait before the k-th consecutive retry is
	// max(1, BackoffBase<<min(k, limit) / 4) cycles. Sub-cycle base
	// units let the first few retries poll nearly back-to-back, the
	// way tuned back-off implementations behave, while the ceiling
	// still grows by the paper's "number of exponentiations".
	BackoffBase uint64
	// BackoffLimit is the number of exponentiations before the
	// interval ceiling. A limit of 0 models the paper's BackOff-0,
	// i.e. direct LLC spinning with no delay.
	BackoffLimit int
}

// DefaultConfig mirrors the tuning used for the paper's BackOff-N
// configurations; only the limit varies between them.
func DefaultConfig(limit int) Config {
	return Config{BackoffBase: 1, BackoffLimit: limit}
}

// Stats aggregates a core's execution counters.
type Stats struct {
	Instructions  uint64
	MemOps        uint64
	ComputeCycles uint64
	BackoffCycles uint64
	// MemStallCycles is time spent blocked on memory responses that
	// took at least IdleGateThreshold cycles — stalls long enough to
	// clock-gate through (blocked callbacks, LLC round trips, monitor
	// halts), the Section 2.1 power-saving opportunity the paper leaves
	// to future work. Short L1-hit stalls (busy spinning) do not count.
	MemStallCycles uint64
	DoneAt         uint64 // cycle the Done op executed

	// SyncCycles and SyncEntries attribute time to synchronization
	// phases by kind (innermost marker wins when phases nest).
	SyncCycles  [isa.NumSyncKinds]uint64
	SyncEntries [isa.NumSyncKinds]uint64
	// StaleResponses counts callback reads answered by a directory
	// eviction rather than a write.
	StaleResponses uint64
}

// Core is one simulated in-order processor.
type Core struct {
	k    *sim.Kernel
	self sim.ActorID
	id   memtypes.NodeID
	port memtypes.Port
	cfg  Config

	// prog is the loaded program: immutable input, not evolving state.
	// The snapshot side carries it so a restored core can resume, but
	// the digest deliberately skips it — hashing the program text would
	// only re-hash the loader argument (see digest.go).
	//cbvet:ephemeral immutable program text; snapshotted for resume, deliberately excluded from digests
	prog *isa.Program
	regs [isa.NumRegs]uint64
	pc   int

	// isPrivate classifies addresses as thread-private (excluded from
	// coherence by the self-invalidation protocols).
	isPrivate func(memtypes.Addr) bool

	backoffCount int
	syncStack    []syncFrame
	started      bool
	done         bool
	onDone       func(*Core)

	// obs, when set, receives the core's events: sync phases, spin
	// waits, retired batches, memory-stall boundaries and completion.
	// The hook is observational only — it must not change timing.
	obs trace.Hook

	// The in-flight memory operation. A core has at most one, so it owns
	// one request slot that the L1 reads until the op completes, plus
	// the state Complete needs to retire it. Reusing the slot keeps the
	// memory path allocation-free.
	//cbvet:ephemeral in-flight op slot: snapshots refuse a pending op (L1 State fails) and the L1 digest folds the request it holds
	req memtypes.Request
	//cbvet:ephemeral stale-response tag: only compared between an in-flight request and its reply, and a snapshot has neither
	opSeq uint64
	//cbvet:ephemeral completion state of the in-flight op, rebuilt from the program at the next issue
	rd isa.Reg
	//cbvet:ephemeral completion state of the in-flight op, rebuilt from the program at the next issue
	isLoad bool
	//cbvet:ephemeral completion state of the in-flight op, rebuilt at the next issue
	issuedAt uint64

	stats Stats
}

// Core event stages, passed as the arg of Act. The core schedules itself
// as a sim.Actor, so resuming it allocates no closure.
const (
	stageStep  = iota // execute the next batch of instructions
	stageIssue        // hand the prepared request to the port
	stageDone         // report the finished core to onDone
)

type syncFrame struct {
	kind  isa.SyncKind
	start uint64
}

// New creates a core with the given ID attached to an L1 port. classify
// may be nil, meaning no address is private. onDone may be nil.
func New(k *sim.Kernel, id memtypes.NodeID, port memtypes.Port, cfg Config,
	classify func(memtypes.Addr) bool, onDone func(*Core)) *Core {
	if classify == nil {
		classify = func(memtypes.Addr) bool { return false }
	}
	c := &Core{k: k, id: id, port: port, cfg: cfg, isPrivate: classify, onDone: onDone}
	c.self = k.Register(c)
	return c
}

// ID returns the core's node ID.
func (c *Core) ID() memtypes.NodeID { return c.id }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Done reports whether the core has executed its Done op.
func (c *Core) Done() bool { return c.done }

// Reg returns the current value of register r (for tests and examples).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// PC returns the current program counter (diagnostics).
func (c *Core) PC() int { return c.pc }

// CurrentInstr returns the instruction at the PC, or nil when no program
// is loaded or the core finished (diagnostics).
func (c *Core) CurrentInstr() *isa.Instr {
	if c.prog == nil || c.done || c.pc < 0 || c.pc >= c.prog.Len() {
		return nil
	}
	return &c.prog.Ins[c.pc]
}

// SetReg presets a register before Start (program arguments: thread ID,
// structure base addresses...).
func (c *Core) SetReg(r isa.Reg, v uint64) { c.regs[r] = v }

// SetObserver installs the core's event hook (nil disables).
func (c *Core) SetObserver(fn trace.Hook) { c.obs = fn }

// curKind is the innermost synchronization phase the core is in.
func (c *Core) curKind() isa.SyncKind {
	if n := len(c.syncStack); n > 0 {
		return c.syncStack[n-1].kind
	}
	return isa.SyncNone
}

// emit reports one of the core's events to the hook, if installed.
//
//cbsim:hotpath
func (c *Core) emit(k trace.Kind, cycle, a, b uint64) {
	if c.obs != nil {
		c.obs(trace.Event{Kind: k, Cycle: cycle, Node: c.id, A: a, B: b})
	}
}

// flushExec reports the batch cycles retired since the last flush as an
// exec event, attributed to the current innermost sync phase.
func (c *Core) flushExec(elapsed uint64, rep *uint64) {
	if c.obs == nil || elapsed == *rep {
		return
	}
	c.emit(trace.KindExec, c.k.Now()+elapsed, elapsed-*rep, uint64(c.curKind()))
	*rep = elapsed
}

// Run assigns prog and schedules the core to begin at the given delay.
func (c *Core) Run(prog *isa.Program, delay uint64) {
	if c.started {
		panic(fmt.Sprintf("cpu: core %d started twice", c.id))
	}
	if prog.Len() == 0 {
		panic("cpu: empty program")
	}
	c.prog = prog
	c.started = true
	c.k.Schedule(delay, c.self, nil, stageStep)
}

// Act runs one of the core's scheduled events (implements sim.Actor).
//
//cbsim:hotpath
func (c *Core) Act(_ *memtypes.Message, stage uint64) {
	switch stage {
	case stageStep:
		c.step()
	case stageIssue:
		c.issue()
	case stageDone:
		c.onDone(c)
	default:
		panic(fmt.Sprintf("cpu: core %d unknown event stage %d", c.id, stage))
	}
}

// IdleGateThreshold is the minimum memory stall, in cycles, that counts
// as clock-gate-able idle time (shorter stalls cannot realistically be
// gated).
const IdleGateThreshold = 16

// maxBatch bounds how many back-to-back non-memory ops execute inside one
// event before yielding to the kernel, so runaway ALU loops cannot stall
// the simulation.
const maxBatch = 4096

// step executes instructions until the core blocks on memory, waits, or
// finishes.
//
//cbsim:hotpath
func (c *Core) step() {
	var elapsed uint64 // cycles consumed within this batch
	var rep uint64     // cycles of this batch already reported as exec events
	for n := 0; ; n++ {
		if n >= maxBatch {
			c.flushExec(elapsed, &rep)
			c.k.Schedule(elapsed, c.self, nil, stageStep)
			return
		}
		if c.pc < 0 || c.pc >= c.prog.Len() {
			panic(fmt.Sprintf("cpu: core %d pc %d out of range", c.id, c.pc))
		}
		in := &c.prog.Ins[c.pc]
		c.stats.Instructions++
		switch in.Op {
		case isa.Nop:
			elapsed++
			c.pc++
		case isa.Imm:
			c.regs[in.Rd] = in.ImmVal
			elapsed++
			c.pc++
		case isa.Mov:
			c.regs[in.Rd] = c.regs[in.Rs]
			elapsed++
			c.pc++
		case isa.Add:
			c.regs[in.Rd] = c.regs[in.Rs] + c.regs[in.Rt]
			elapsed++
			c.pc++
		case isa.Addi:
			c.regs[in.Rd] = c.regs[in.Rs] + in.ImmVal
			elapsed++
			c.pc++
		case isa.Sub:
			c.regs[in.Rd] = c.regs[in.Rs] - c.regs[in.Rt]
			elapsed++
			c.pc++
		case isa.Xori:
			c.regs[in.Rd] = c.regs[in.Rs] ^ in.ImmVal
			elapsed++
			c.pc++
		case isa.Beq:
			c.branch(in, c.regs[in.Rs] == c.regs[in.Rt])
			elapsed++
		case isa.Bne:
			c.branch(in, c.regs[in.Rs] != c.regs[in.Rt])
			elapsed++
		case isa.Beqi:
			c.branch(in, c.regs[in.Rs] == in.ImmVal)
			elapsed++
		case isa.Bnei:
			c.branch(in, c.regs[in.Rs] != in.ImmVal)
			elapsed++
		case isa.Jmp:
			c.pc = in.Target
			elapsed++
		case isa.Compute:
			c.stats.ComputeCycles += in.ImmVal
			elapsed += in.ImmVal
			c.pc++
		case isa.ComputeR:
			cycles := c.regs[in.Rs]
			c.stats.ComputeCycles += cycles
			elapsed += cycles
			c.pc++
		case isa.SyncBegin:
			kind := isa.SyncKind(in.ImmVal)
			c.flushExec(elapsed, &rep) // cycles so far belong to the outer phase
			c.syncStack = append(c.syncStack, syncFrame{
				kind:  kind,
				start: c.k.Now() + elapsed,
			})
			c.emit(trace.KindSyncBegin, c.k.Now()+elapsed, 0, uint64(kind))
			c.pc++
		case isa.SyncEnd:
			if len(c.syncStack) == 0 {
				panic(fmt.Sprintf("cpu: core %d SyncEnd without SyncBegin", c.id))
			}
			c.flushExec(elapsed, &rep) // cycles so far belong to the ending phase
			top := c.syncStack[len(c.syncStack)-1]
			c.syncStack = c.syncStack[:len(c.syncStack)-1]
			if top.kind != isa.SyncKind(in.ImmVal) {
				panic(fmt.Sprintf("cpu: core %d sync marker mismatch: begin %s end %s",
					c.id, top.kind, isa.SyncKind(in.ImmVal)))
			}
			c.stats.SyncCycles[top.kind] += c.k.Now() + elapsed - top.start
			c.stats.SyncEntries[top.kind]++
			c.emit(trace.KindSyncEnd, c.k.Now()+elapsed, c.k.Now()+elapsed-top.start, uint64(top.kind))
			c.pc++
		case isa.BackoffReset:
			c.backoffCount = 0
			c.pc++
		case isa.BackoffWait:
			c.pc++
			wait := c.backoffInterval()
			c.stats.BackoffCycles += wait
			c.flushExec(elapsed, &rep)
			c.emit(trace.KindSpinWait, c.k.Now()+elapsed, wait, uint64(c.curKind()))
			c.k.Schedule(elapsed+wait, c.self, nil, stageStep)
			return
		case isa.Done:
			c.done = true
			c.stats.DoneAt = c.k.Now() + elapsed
			if len(c.syncStack) != 0 {
				panic(fmt.Sprintf("cpu: core %d finished inside a sync phase", c.id))
			}
			c.flushExec(elapsed, &rep)
			c.emit(trace.KindDone, c.stats.DoneAt, 0, 0)
			if c.onDone != nil {
				c.k.Schedule(elapsed, c.self, nil, stageDone)
			}
			return
		default:
			if !in.Op.IsMem() {
				panic(fmt.Sprintf("cpu: core %d unknown opcode %s", c.id, in.Op))
			}
			c.flushExec(elapsed, &rep)
			c.issueMem(in, elapsed)
			return
		}
	}
}

func (c *Core) branch(in *isa.Instr, taken bool) {
	if taken {
		c.pc = in.Target
	} else {
		c.pc++
	}
}

// backoffInterval returns the wait before the next retry and advances the
// exponentiation count.
func (c *Core) backoffInterval() uint64 {
	if c.cfg.BackoffLimit <= 0 {
		return 0 // BackOff-0: direct LLC spinning
	}
	k := c.backoffCount
	if k > c.cfg.BackoffLimit {
		k = c.cfg.BackoffLimit
	} else {
		c.backoffCount++
	}
	iv := c.cfg.BackoffBase << k / 4
	if iv == 0 {
		iv = 1
	}
	return iv
}

// issueMem fills the core's request slot for in and issues it after the
// batch's elapsed cycles; Complete resumes execution when the port
// responds.
//
//cbsim:hotpath
func (c *Core) issueMem(in *isa.Instr, elapsed uint64) {
	c.opSeq++
	c.req = memtypes.Request{Core: c.id, Sync: len(c.syncStack) > 0, Seq: c.opSeq}
	req := &c.req
	if n := len(c.syncStack); n > 0 {
		req.SyncKind = uint8(c.syncStack[n-1].kind)
	}
	switch in.Op {
	case isa.Ld:
		req.Kind = memtypes.OpRead
	case isa.St:
		req.Kind = memtypes.OpWrite
		req.Value = c.regs[in.Rs]
	case isa.LdT:
		req.Kind = memtypes.OpReadThrough
	case isa.LdCB:
		req.Kind = memtypes.OpReadCB
	case isa.StT:
		req.Kind = memtypes.OpWriteThrough
		req.Value = c.regs[in.Rs]
	case isa.StCB1:
		req.Kind = memtypes.OpWriteCB1
		req.Value = c.regs[in.Rs]
	case isa.StCB0:
		req.Kind = memtypes.OpWriteCB0
		req.Value = c.regs[in.Rs]
	case isa.RMW:
		req.Kind = memtypes.OpRMW
		req.RMW = in.RMWOp
		req.RMWLdCB = in.RMWLdCB
		req.RMWSt = in.RMWSt
		req.Expect = in.Expect
		if in.ArgIsReg {
			req.Arg = c.regs[in.ArgReg]
		} else {
			req.Arg = in.ArgImm
		}
	case isa.SelfInvl:
		req.Kind = memtypes.OpFenceSelfInvl
	case isa.SelfDown:
		req.Kind = memtypes.OpFenceSelfDown
	default:
		panic(fmt.Sprintf("cpu: issueMem on %s", in.Op))
	}
	if req.Kind != memtypes.OpFenceSelfInvl && req.Kind != memtypes.OpFenceSelfDown {
		req.Addr = memtypes.Addr(c.regs[in.Base] + uint64(in.Offset))
		req.Private = c.isPrivate(req.Addr)
	}
	c.stats.MemOps++
	c.rd = in.Rd
	c.isLoad = in.Op == isa.Ld || in.Op == isa.LdT || in.Op == isa.LdCB || in.Op == isa.RMW
	if elapsed == 0 {
		c.issue()
	} else {
		c.k.Schedule(elapsed, c.self, nil, stageIssue)
	}
}

// issue hands the prepared request to the L1 port.
//
//cbsim:hotpath
func (c *Core) issue() {
	c.issuedAt = c.k.Now()
	c.emit(trace.KindStallBegin, c.issuedAt, uint64(c.req.SyncKind), uint64(stallCategory(c.req.Kind)))
	c.port.Access(&c.req, c)
}

// Complete retires the in-flight memory operation and resumes execution
// (implements memtypes.Completer).
//
//cbsim:hotpath
func (c *Core) Complete(resp memtypes.Response) {
	c.emit(trace.KindStallEnd, c.k.Now(), 0, 0)
	if stall := c.k.Now() - c.issuedAt; stall >= IdleGateThreshold {
		c.stats.MemStallCycles += stall
	}
	if c.isLoad {
		c.regs[c.rd] = resp.Value
	}
	if resp.Stale {
		c.stats.StaleResponses++
	}
	c.pc++
	c.step()
}

// stallCategory picks the fallback attribution for parts of a memory
// stall no memory-system component claims: cached ops resolve in the
// private L1, racy/through ops at the LLC, fences in the coherence
// machinery.
func stallCategory(k memtypes.OpKind) cycles.Category {
	switch k {
	case memtypes.OpRead, memtypes.OpWrite:
		return cycles.CatL1Stall
	case memtypes.OpFenceSelfInvl, memtypes.OpFenceSelfDown:
		return cycles.CatCoherenceStall
	}
	return cycles.CatLLCStall
}
