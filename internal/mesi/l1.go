package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is an L1 MESI line state. Invalid lines are simply absent from
// the array.
type State uint8

const (
	// StateS is a read-only shared copy.
	StateS State = iota
	// StateE is a clean exclusive copy (silently upgradable to M).
	StateE
	// StateM is a modified exclusive copy.
	StateM
)

func (s State) String() string {
	switch s {
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateM:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// L1Stats counts L1 activity.
type L1Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	Upgrades      uint64 // S->M requests
	Invalidations uint64 // lines killed by remote writers
	Writebacks    uint64 // PutM messages
	Forwards      uint64 // FwdGetS/FwdGetX served
}

type l1Line struct {
	state State
}

// l1Pending is the outstanding core operation; req is nil when there is
// none.
type l1Pending struct {
	req  *memtypes.Request
	done memtypes.Completer
}

// L1 event stages, passed as the arg of Act.
const (
	evRespond = iota // deliver the response slot to its core
	evResume         // re-issue the load of a woken monitor
)

// L1 is one core's private MESI cache controller; it implements
// memtypes.Port.
type L1 struct {
	k      *sim.Kernel
	self   sim.ActorID
	id     memtypes.NodeID
	mesh   *noc.Mesh
	store  *mem.Store
	bankOf func(memtypes.Addr) memtypes.NodeID

	arr     *cache.Array[l1Line]
	pending l1Pending

	// The one-slot response event: the completion and its target wait
	// here from finish until the evRespond event fires. A core has one
	// operation in flight, so one slot is enough.
	//cbvet:ephemeral response in transit to the core, consumed by the response event already scheduled; a quiescent machine has none
	resp memtypes.Response
	//cbvet:ephemeral response in transit to the core, consumed by the response event already scheduled; a quiescent machine has none
	respTo memtypes.Completer

	// Monitor (quiesce/MWAIT) extension state; see monitor.go.
	monitorEnabled bool
	monitor        monitorState
	monStats       MonitorStats

	// obs, when set, receives monitor arm/wake events and the stall
	// legs of the core's in-flight miss (observational only).
	obs trace.Hook

	stats L1Stats
}

// newL1 builds the MESI L1 for core id (32KB, 4-way).
func newL1(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, bankOf func(memtypes.Addr) memtypes.NodeID, monitor bool) *L1 {
	l := &L1{
		k: k, id: id, mesh: mesh, store: store, bankOf: bankOf, monitorEnabled: monitor,
		arr: cache.NewArray[l1Line](32*1024, 4),
	}
	l.self = k.Register(l)
	return l
}

// Stats returns the L1 counters.
func (l *L1) Stats() L1Stats { return l.stats }

// LineState reports the state of addr's line (tests). ok is false when
// the line is not resident.
func (l *L1) LineState(addr memtypes.Addr) (State, bool) {
	if line := l.arr.Peek(addr); line != nil {
		return line.State.state, true
	}
	return 0, false
}

// mapKind folds the racy operations of the self-invalidation protocols
// onto their plain MESI equivalents: under invalidation-based coherence,
// synchronization uses ordinary cached accesses and spins locally.
func mapKind(k memtypes.OpKind) memtypes.OpKind {
	switch k {
	case memtypes.OpReadThrough, memtypes.OpReadCB:
		return memtypes.OpRead
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
		return memtypes.OpWrite
	default:
		return k
	}
}

// Access implements memtypes.Port.
//
//cbsim:hotpath
func (l *L1) Access(req *memtypes.Request, done memtypes.Completer) {
	if l.pending.req != nil {
		panic(fmt.Sprintf("mesi: core %d issued a second request while one is outstanding", l.id))
	}
	if l.monitorEnabled && req.Kind == memtypes.OpReadCB {
		l.accessMonitored(req, done)
		return
	}
	kind := mapKind(req.Kind)
	if kind.IsFence() {
		// MESI needs no self-invalidation or self-downgrade.
		cycles.Span(l.obs, l.k.Now(), l.k.Now()+mem.DefaultL1Latency, l.id, cycles.CatL1Stall)
		l.respond(mem.DefaultL1Latency, done, memtypes.Response{})
		return
	}
	l.pending = l1Pending{req: req, done: done}
	l.stats.Accesses++
	line := l.arr.Lookup(req.Addr)
	switch kind {
	case memtypes.OpRead:
		if line != nil {
			l.stats.Hits++
			l.finish(line, mem.DefaultL1Latency, true)
			return
		}
		l.stats.Misses++
		l.request(MsgGetS, req)
	case memtypes.OpWrite, memtypes.OpRMW:
		if line != nil && line.State.state != StateS {
			l.stats.Hits++
			line.State.state = StateM // silent E->M upgrade
			l.finish(line, mem.DefaultL1Latency, true)
			return
		}
		if line != nil {
			l.stats.Upgrades++
		} else {
			l.stats.Misses++
		}
		l.request(MsgGetX, req)
	default:
		panic(fmt.Sprintf("mesi: unexpected op %s", kind))
	}
}

// respond hands resp to done after delay cycles through the one-slot
// response event.
//
//cbsim:hotpath
func (l *L1) respond(delay uint64, done memtypes.Completer, resp memtypes.Response) {
	if l.respTo != nil {
		panic(fmt.Sprintf("mesi: core %d response slot already in use", l.id))
	}
	l.resp, l.respTo = resp, done
	l.k.Schedule(delay, l.self, nil, evRespond)
}

// Act runs one of the L1's scheduled events (implements sim.Actor).
//
//cbsim:hotpath
func (l *L1) Act(_ *memtypes.Message, ev uint64) {
	switch ev {
	case evRespond:
		done := l.respTo
		l.respTo = nil
		done.Complete(l.resp)
	case evResume:
		l.resumeMonitor()
	default:
		panic(fmt.Sprintf("mesi: L1 %d unknown event stage %d", l.id, ev))
	}
}

//cbsim:hotpath
func (l *L1) request(kind memtypes.MsgKind, req *memtypes.Request) {
	msg := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: l.bankOf(req.Addr), Kind: kind,
		Class: memtypes.ClassControl, Addr: req.Addr.Line(),
		Core: l.id, Req: req, Seq: req.Seq,
	})
	l.mesh.Send(msg)
	cycles.Open(l.obs, l.k.Now(), l.id, cycles.CatNoC)
}

// finish applies the pending operation to a resident line with the
// required permissions and responds to the core.
//
//cbsim:hotpath
func (l *L1) finish(line *cache.Line[l1Line], delay uint64, hit bool) {
	p := l.pending
	l.pending = l1Pending{}
	req := p.req
	w := req.Addr.WordIndex()
	resp := memtypes.Response{Hit: hit}
	cycles.Span(l.obs, l.k.Now(), l.k.Now()+delay, l.id, cycles.CatL1Stall)
	switch mapKind(req.Kind) {
	case memtypes.OpRead:
		resp.Value = line.Data[w]
	case memtypes.OpWrite:
		line.Data[w] = req.Value
		// The single M copy is the current value: commit globally.
		l.store.StoreWord(req.Addr, req.Value)
	case memtypes.OpRMW:
		old := line.Data[w]
		newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
		if writes {
			line.Data[w] = newVal
			l.store.StoreWord(req.Addr, newVal)
		}
		resp.Value = old
	}
	l.respond(delay, p.done, resp)
}

// handleData installs a granted line and completes the pending miss. The
// grant must answer the pending operation itself: same line and same
// operation sequence number.
func (l *L1) handleData(msg *memtypes.Message) {
	if p := l.pending.req; p == nil || p.Addr.Line() != msg.Addr || p.Seq != msg.Seq {
		panic(fmt.Sprintf("mesi: core %d unexpected data for %s (op %d)", l.id, msg.Addr, msg.Seq))
	}
	cycles.Close(l.obs, l.k.Now(), l.id)
	line := l.arr.Peek(msg.Addr)
	if line == nil {
		l.evictFor(msg.Addr)
		line, _ = l.arr.Allocate(msg.Addr)
		line.Data = msg.LineData
	}
	switch msg.Kind {
	case MsgDataS:
		line.State.state = StateS
	case MsgDataE:
		line.State.state = StateE
	case MsgDataX:
		line.State.state = StateM
		// A DataX response supersedes any stale local copy.
		line.Data = msg.LineData
	}
	l.mesh.Free(msg)
	l.finish(line, mem.DefaultL1Latency, false)
}

// evictFor makes room for a fill of addr.
func (l *L1) evictFor(addr memtypes.Addr) {
	v := l.arr.Victim(addr)
	if !v.Valid {
		return
	}
	switch v.State.state {
	case StateM:
		l.stats.Writebacks++
		msg := l.mesh.NewMessage(memtypes.Message{
			Src: l.id, Dst: l.bankOf(v.Addr), Kind: MsgPutM,
			Class: memtypes.ClassLineData, Addr: v.Addr, Core: l.id,
			LineData: v.Data,
		})
		l.mesh.Send(msg)
	case StateE:
		msg := l.mesh.NewMessage(memtypes.Message{
			Src: l.id, Dst: l.bankOf(v.Addr), Kind: MsgPutE,
			Class: memtypes.ClassControl, Addr: v.Addr, Core: l.id,
		})
		l.mesh.Send(msg)
	case StateS:
		// Silent eviction: the directory's sharer bit goes stale and a
		// later Inv is acked without a copy.
	}
	l.arr.Invalidate(v.Addr)
}

// handleInv invalidates a line and acks, whether or not a copy remains.
func (l *L1) handleInv(msg *memtypes.Message) {
	if l.arr.Invalidate(msg.Addr) {
		l.stats.Invalidations++
	}
	l.monitorInvalidated(msg.Addr)
	ack := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: msg.Src, Kind: MsgInvAck,
		Class: memtypes.ClassControl, Addr: msg.Addr, Core: l.id,
	})
	l.mesh.Free(msg)
	l.mesh.Send(ack)
}

// handleFwd serves a forwarded request: return the line to the directory
// and downgrade (GetS) or invalidate (GetX). An owner that already
// evicted the line still responds — the directory reconciles with the
// in-flight writeback.
func (l *L1) handleFwd(msg *memtypes.Message) {
	l.stats.Forwards++
	data := l.store.LoadLine(msg.Addr)
	if line := l.arr.Peek(msg.Addr); line != nil {
		data = line.Data
		if msg.Kind == MsgFwdGetS {
			line.State.state = StateS
		} else {
			l.arr.Invalidate(msg.Addr)
			l.monitorInvalidated(msg.Addr)
		}
	}
	wb := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: msg.Src, Kind: MsgDataWB,
		Class: memtypes.ClassLineData, Addr: msg.Addr, Core: msg.Core,
		LineData: data,
	})
	l.mesh.Free(msg)
	l.mesh.Send(wb)
}

// Deliver routes directory-to-L1 messages.
func (l *L1) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgDataS, MsgDataE, MsgDataX:
		l.handleData(msg)
	case MsgInv:
		l.handleInv(msg)
	case MsgFwdGetS, MsgFwdGetX:
		l.handleFwd(msg)
	case MsgWBAck:
		// Writebacks are fire-and-forget.
		l.mesh.Free(msg)
	default:
		panic(fmt.Sprintf("mesi: L1 %d cannot handle %s", l.id, msg))
	}
}
