// Package verify statically checks isa.Programs before they reach a
// simulated machine. It builds the control-flow graph and runs an
// abstract interpretation proving four properties:
//
//   - structure: jump targets in range, register indices valid, RMW
//     fields consistent, sync-marker kinds defined, no fallthrough off
//     the end of the program, a reachable done.
//   - memory: every ld/st/RMW effective address provably lands inside
//     the program's declared data Footprint. Direct addresses are
//     tracked through an interval domain; pointer-chasing accesses
//     (base register loaded from memory, as in the CLH lock's queue
//     nodes) are only admitted when the footprint explicitly allows
//     indirection, and even then the static offset must stay within one
//     cache line of the loaded pointer.
//   - sync: acquire/release pairing balances on every path, sync_end
//     matches the innermost sync_begin, done never fires inside a sync
//     phase, and blocking operations (ld_cb, backoff_wait, RMWs with a
//     callback load half) only appear inside a synchronization region.
//     Across a thread set, statically determinate barrier-episode
//     counts must agree (barrier participation consistency).
//   - bound: every control-flow cycle is either a sync-guarded spin
//     loop (it blocks on memory inside a sync region, so progress is
//     the protocol's liveness obligation) or a counted loop with a
//     provable trip bound. From the trip bounds the verifier derives a
//     worst-case cycle Budget so services can enforce per-tenant
//     limits.
//
// Two modes: ModeTrusted admits sync-guarded spin loops (the synclib
// algorithms guarantee their progress) and is what the built-in
// workloads verify under; ModeStrict is for untrusted single programs —
// it additionally rejects spin loops and blocking callback reads, so an
// accepted program terminates within Budget cycles no matter what other
// cores do.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/memtypes"
)

// Mode selects how much liveness the verifier takes on trust.
type Mode uint8

const (
	// ModeTrusted admits sync-guarded spin loops and blocking callback
	// reads: bounded-ness of spinning is the protocol's obligation.
	ModeTrusted Mode = iota
	// ModeStrict proves termination unconditionally: no spin loops, no
	// blocking callback reads, every loop carries a trip bound.
	ModeStrict
)

func (m Mode) String() string {
	if m == ModeStrict {
		return "strict"
	}
	return "trusted"
}

// Cost-model constants for the worst-case cycle Budget.
const (
	// MemLatencyBound over-approximates one memory operation's latency
	// on an uncontended machine (L1 miss + mesh round trip + DRAM).
	MemLatencyBound = 512
	// BackoffWaitBound over-approximates one backoff_wait stall at the
	// largest configurable interval.
	BackoffWaitBound = 1 << 18
	// MaxComputeCycles caps a single compute's immediate in strict mode
	// so one instruction cannot out-wait a liveness watchdog.
	MaxComputeCycles = 1 << 20
	// MaxTrips caps a provable loop trip count.
	MaxTrips = 1 << 20
	// budgetCap saturates budget arithmetic.
	budgetCap = uint64(1) << 62
)

// maxSyncDepth bounds the abstract sync-marker stack (the deepest
// builtin nesting is a lock acquire inside a barrier: depth 2).
const maxSyncDepth = 8

// Options configures one verification.
type Options struct {
	// Footprint declares the data the program may touch. nil skips the
	// memory-safety check (structure, sync, and bound still run).
	Footprint *Footprint
	// Mode selects trusted or strict liveness treatment.
	Mode Mode
	// MaxInstrs rejects absurdly long programs (0 = default 1<<20).
	MaxInstrs int
}

// Diagnostic is one finding, anchored to an instruction.
type Diagnostic struct {
	Thread int    // thread index in a set, -1 for single programs
	PC     int    // instruction index, -1 for whole-program findings
	Instr  string // disassembly of the offending instruction
	Check  string // "structure", "memory", "sync", or "bound"
	Msg    string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Thread >= 0 {
		fmt.Fprintf(&b, "thread %d: ", d.Thread)
	}
	if d.PC >= 0 {
		fmt.Fprintf(&b, "pc %d (%s) ", d.PC, d.Instr)
	}
	fmt.Fprintf(&b, "[%s]: %s", d.Check, d.Msg)
	return b.String()
}

// Report is the outcome of verifying one program.
type Report struct {
	Diags []Diagnostic

	// Budget is the worst-case productive cycle count: every reachable
	// instruction costed at its latency bound, multiplied through
	// proven loop trip counts. In trusted mode spin-loop iterations are
	// excluded (each spin site is counted once); in strict mode the
	// budget bounds the whole execution.
	Budget uint64
	// SpinSites counts sync-guarded spin loops (trusted mode only).
	SpinSites int
	// Barriers is the number of barrier episodes completed on every
	// path to done, or -1 when the count is path- or loop-dependent.
	Barriers int
	// MemOps counts reachable memory operations.
	MemOps int
}

// OK reports whether verification passed.
func (r *Report) OK() bool { return len(r.Diags) == 0 }

// Err returns nil when verification passed, or an error carrying every
// diagnostic.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Diags))
	for i, d := range r.Diags {
		msgs[i] = d.String()
	}
	return fmt.Errorf("verify: %d finding(s):\n  %s", len(r.Diags), strings.Join(msgs, "\n  "))
}

// CycleLimit returns a machine cycle limit generously above Budget, for
// harnesses that run an accepted program and treat non-completion as a
// verifier soundness bug.
func (r *Report) CycleLimit() uint64 {
	return satAdd(r.Budget, 1<<16)
}

// SetReport is the outcome of verifying a multi-threaded program set.
type SetReport struct {
	Threads []*Report
	// Cross holds cross-thread findings (barrier participation).
	Cross []Diagnostic
}

// OK reports whether every thread and the cross-thread checks passed.
func (s *SetReport) OK() bool {
	if len(s.Cross) > 0 {
		return false
	}
	for _, r := range s.Threads {
		if !r.OK() {
			return false
		}
	}
	return true
}

// AllDiags returns every diagnostic, thread-tagged, in thread order.
func (s *SetReport) AllDiags() []Diagnostic {
	var out []Diagnostic
	for _, r := range s.Threads {
		out = append(out, r.Diags...)
	}
	return append(out, s.Cross...)
}

// Err returns nil when the set passed, or an error listing every
// diagnostic.
func (s *SetReport) Err() error {
	if s.OK() {
		return nil
	}
	ds := s.AllDiags()
	msgs := make([]string, len(ds))
	for i, d := range ds {
		msgs[i] = d.String()
	}
	return fmt.Errorf("verify: %d finding(s):\n  %s", len(ds), strings.Join(msgs, "\n  "))
}

// Budget returns the sum of the per-thread budgets (saturating).
func (s *SetReport) Budget() uint64 {
	var total uint64
	for _, r := range s.Threads {
		total = satAdd(total, r.Budget)
	}
	return total
}

// Program verifies a single program.
func Program(p *isa.Program, opts Options) *Report {
	v := newVerifier(p, opts)
	return v.run()
}

// Threads verifies a thread set: each program individually, then
// barrier-participation consistency across threads.
func Threads(progs []*isa.Program, opts Options) *SetReport {
	set := &SetReport{}
	for tid, p := range progs {
		r := Program(p, opts)
		for i := range r.Diags {
			r.Diags[i].Thread = tid
		}
		set.Threads = append(set.Threads, r)
	}
	// Barrier participation: every thread whose episode count is
	// statically determinate must complete the same number of episodes.
	ref, refTid := -1, -1
	for tid, r := range set.Threads {
		if !r.OK() || r.Barriers < 0 {
			continue
		}
		if ref < 0 {
			ref, refTid = r.Barriers, tid
		} else if r.Barriers != ref {
			set.Cross = append(set.Cross, Diagnostic{
				Thread: tid, PC: -1, Check: "sync",
				Msg: fmt.Sprintf("barrier participation differs across threads: thread %d completes %d barrier episode(s) but thread %d completes %d",
					tid, r.Barriers, refTid, ref),
			})
		}
	}
	return set
}

// verifier holds the working state of one Program verification.
type verifier struct {
	p    *isa.Program
	opts Options
	n    int

	report *Report
	seen   map[diagKey]bool

	// in[i] is the joined abstract state on entry to instruction i;
	// nil means not yet reached.
	in []*absState
	// visits counts fixpoint visits per PC, to trigger widening.
	visits []int

	// cur and alt are the fixpoint's scratch states: a visit transfers
	// a copy of in[pc] held in cur (and alt, for a branch's second
	// edge), and outs holds the outgoing edges, all consumed before the
	// next visit. Reusing them keeps a visit allocation-free.
	cur, alt absState
	outs     []edgeOut

	// doneBarriers accumulates the barrier count at reachable done
	// instructions; -2 = none seen yet, -1 = indeterminate.
	doneBarriers int
}

type diagKey struct {
	pc    int
	check string
	msg   string
}

func newVerifier(p *isa.Program, opts Options) *verifier {
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 1 << 20
	}
	return &verifier{
		p: p, opts: opts, n: len(p.Ins),
		report:       &Report{Barriers: -1},
		seen:         make(map[diagKey]bool),
		in:           make([]*absState, len(p.Ins)),
		visits:       make([]int, len(p.Ins)),
		doneBarriers: -2,
	}
}

func (v *verifier) diag(pc int, check, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	k := diagKey{pc, check, msg}
	if v.seen[k] {
		return
	}
	v.seen[k] = true
	d := Diagnostic{Thread: -1, PC: pc, Check: check, Msg: msg}
	if pc >= 0 && pc < v.n {
		d.Instr = v.p.Ins[pc].String()
	}
	v.report.Diags = append(v.report.Diags, d)
}

func (v *verifier) run() *Report {
	if v.n == 0 {
		v.diag(-1, "structure", "empty program")
		return v.report
	}
	if v.n > v.opts.MaxInstrs {
		v.diag(-1, "structure", "program has %d instructions, above the %d cap", v.n, v.opts.MaxInstrs)
		return v.report
	}
	v.structural()
	if len(v.report.Diags) > 0 {
		// Malformed encodings (bad targets, bad registers) make the
		// abstract interpretation itself ill-defined; stop here.
		v.sortDiags()
		return v.report
	}
	v.fixpoint()
	if v.doneBarriers == -2 {
		v.diag(-1, "structure", "no reachable done instruction")
	} else if v.doneBarriers >= 0 {
		v.report.Barriers = v.doneBarriers
	}
	v.analyzeLoops()
	v.sortDiags()
	return v.report
}

func (v *verifier) sortDiags() {
	sort.SliceStable(v.report.Diags, func(i, j int) bool {
		a, b := v.report.Diags[i], v.report.Diags[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// structural validates every instruction's encoding independent of
// reachability.
func (v *verifier) structural() {
	for pc := range v.p.Ins {
		in := &v.p.Ins[pc]
		if in.Op > isa.Done {
			v.diag(pc, "structure", "unknown opcode %d", uint8(in.Op))
			continue
		}
		for _, r := range [...]isa.Reg{in.Rd, in.Rs, in.Rt, in.Base, in.ArgReg} {
			if r >= isa.NumRegs {
				v.diag(pc, "structure", "register r%d out of range (have %d registers)", r, isa.NumRegs)
			}
		}
		switch in.Op {
		case isa.Beq, isa.Bne, isa.Beqi, isa.Bnei, isa.Jmp:
			if in.Target < 0 || in.Target >= v.n {
				v.diag(pc, "structure", "branch target %d out of range [0,%d)", in.Target, v.n)
			}
		case isa.SyncBegin, isa.SyncEnd:
			k := isa.SyncKind(in.ImmVal)
			if uint64(k) != in.ImmVal || k == isa.SyncNone || k >= isa.NumSyncKinds {
				v.diag(pc, "structure", "undefined sync kind %d", in.ImmVal)
			}
		case isa.RMW:
			if in.RMWOp > memtypes.RMWCompareAndSwap {
				v.diag(pc, "structure", "undefined RMW op %d", uint8(in.RMWOp))
			}
			if in.RMWSt > memtypes.CBZero {
				v.diag(pc, "structure", "undefined RMW store half %d", uint8(in.RMWSt))
			}
		}
	}
}

// successors returns the control-flow successors of pc, diagnosing a
// fallthrough off the end of the program.
func (v *verifier) successors(pc int) []int {
	in := &v.p.Ins[pc]
	switch in.Op {
	case isa.Done:
		return nil
	case isa.Jmp:
		return []int{in.Target}
	case isa.Beq, isa.Bne, isa.Beqi, isa.Bnei:
		if pc+1 >= v.n {
			v.diag(pc, "structure", "conditional branch falls through past the end of the program")
			return []int{in.Target}
		}
		if in.Target == pc+1 {
			return []int{pc + 1}
		}
		return []int{pc + 1, in.Target}
	default:
		if pc+1 >= v.n {
			v.diag(pc, "structure", "falls through past the end of the program")
			return nil
		}
		return []int{pc + 1}
	}
}

func satAdd(a, b uint64) uint64 {
	if b > budgetCap || a > budgetCap-b {
		return budgetCap
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > budgetCap/b {
		return budgetCap
	}
	return a * b
}
