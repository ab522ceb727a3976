package vips

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

// L1Stats counts L1 activity.
type L1Stats struct {
	Accesses      uint64 // tag+data accesses (DRF hits and fills)
	Hits          uint64
	Misses        uint64
	WriteThroughs uint64 // write-through messages sent (evictions + fences)
	SelfInvls     uint64 // lines invalidated by acquire fences
	SelfDowns     uint64 // self-downgrade fences executed
	RacyOps       uint64 // operations forwarded to the LLC
}

type l1Line struct {
	dirty   [memtypes.WordsPerLine]bool
	private bool
}

func (l *l1Line) anyDirty() bool {
	for _, d := range l.dirty {
		if d {
			return true
		}
	}
	return false
}

// pendingOp is the outstanding core operation; req is nil when there is
// none.
type pendingOp struct {
	req  *memtypes.Request
	done memtypes.Completer
	// fence marks an in-progress fence waiting for write-through acks.
	fence bool
	// invlAfter marks a self-invalidation to perform once all
	// write-throughs drain (self_invl first self-downgrades dirty data,
	// footnote 7 of the paper).
	invlAfter bool
}

// L1 is one core's private cache controller; it implements memtypes.Port
// and handles bank responses delivered by the tile.
type L1 struct {
	k      *sim.Kernel
	self   sim.ActorID
	id     memtypes.NodeID
	mesh   *noc.Mesh
	bankOf func(memtypes.Addr) memtypes.NodeID

	arr     *cache.Array[l1Line]
	pending pendingOp

	// The one-slot response event: the completion and its target wait
	// here from respond until Act fires. A core has one operation in
	// flight, so one slot is enough.
	//cbvet:ephemeral response in transit to the core, consumed by the response event already scheduled; a quiescent machine has none
	resp memtypes.Response
	//cbvet:ephemeral response in transit to the core, consumed by the response event already scheduled; a quiescent machine has none
	respTo memtypes.Completer

	// wtOutstanding counts unacknowledged write-throughs (evictions and
	// fences alike). A fence completes only when this drains to zero,
	// guaranteeing release-to-acquire visibility.
	wtOutstanding int

	// obs, when set, receives the stall legs of the core's in-flight
	// operation (observational only).
	obs trace.Hook

	stats L1Stats
}

// newL1 builds the L1 for core id with the paper's 32KB 4-way geometry.
func newL1(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, bankOf func(memtypes.Addr) memtypes.NodeID) *L1 {
	l := &L1{
		k: k, id: id, mesh: mesh, bankOf: bankOf,
		arr: cache.NewArray[l1Line](32*1024, 4),
	}
	l.self = k.Register(l)
	return l
}

// Stats returns the L1 counters.
func (l *L1) Stats() L1Stats { return l.stats }

// ValidLines reports the number of resident lines (tests).
func (l *L1) ValidLines() int { return l.arr.CountValid() }

// Access implements memtypes.Port.
//
//cbsim:hotpath
func (l *L1) Access(req *memtypes.Request, done memtypes.Completer) {
	if l.pending.req != nil {
		panic(fmt.Sprintf("vips: core %d issued a second request while one is outstanding", l.id))
	}
	l.pending = pendingOp{req: req, done: done}
	switch req.Kind {
	case memtypes.OpRead, memtypes.OpWrite:
		l.accessDRF()
	case memtypes.OpFenceSelfInvl:
		l.fence(true)
	case memtypes.OpFenceSelfDown:
		l.fence(false)
	default:
		if !req.Kind.IsRacy() {
			panic(fmt.Sprintf("vips: unexpected op %s", req.Kind))
		}
		l.issueRacy()
	}
}

// respond completes the pending operation after delay cycles, through
// the one-slot response event.
//
//cbsim:hotpath
func (l *L1) respond(delay uint64, resp memtypes.Response) {
	if l.respTo != nil {
		panic(fmt.Sprintf("vips: core %d response slot already in use", l.id))
	}
	l.resp, l.respTo = resp, l.pending.done
	l.pending = pendingOp{}
	l.k.Schedule(delay, l.self, nil, 0)
}

// Act delivers the response slot to its core (implements sim.Actor).
//
//cbsim:hotpath
func (l *L1) Act(*memtypes.Message, uint64) {
	done := l.respTo
	l.respTo = nil
	done.Complete(l.resp)
}

// accessDRF handles cached loads and stores.
//
//cbsim:hotpath
func (l *L1) accessDRF() {
	req := l.pending.req
	l.stats.Accesses++
	if line := l.arr.Lookup(req.Addr); line != nil {
		l.stats.Hits++
		l.finishDRF(line, mem.DefaultL1Latency)
		return
	}
	l.stats.Misses++
	msg := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: l.bankOf(req.Addr), Kind: MsgGetLine,
		Class: memtypes.ClassControl, Addr: req.Addr.Line(),
		Core: l.id, Req: req, Seq: req.Seq,
	})
	l.mesh.Send(msg)
	cycles.Open(l.obs, l.k.Now(), l.id, cycles.CatNoC)
}

// finishDRF applies the pending DRF op to a resident line and responds.
//
//cbsim:hotpath
func (l *L1) finishDRF(line *cache.Line[l1Line], delay uint64) {
	req := l.pending.req
	w := req.Addr.WordIndex()
	resp := memtypes.Response{Hit: true}
	switch req.Kind {
	case memtypes.OpRead:
		resp.Value = line.Data[w]
	case memtypes.OpWrite:
		line.Data[w] = req.Value
		line.State.dirty[w] = true
	default:
		panic("vips: finishDRF on non-DRF op")
	}
	l.respond(delay, resp)
}

// handleDataLine installs a fill and completes the pending DRF miss. The
// fill must answer the pending operation itself: same line and same
// operation sequence number.
func (l *L1) handleDataLine(msg *memtypes.Message) {
	if p := l.pending.req; p == nil || p.Addr.Line() != msg.Addr || p.Seq != msg.Seq {
		panic(fmt.Sprintf("vips: core %d unexpected fill for %s (op %d)", l.id, msg.Addr, msg.Seq))
	}
	cycles.Close(l.obs, l.k.Now(), l.id)
	l.evictFor(msg.Addr)
	line, ev := l.arr.Allocate(msg.Addr)
	if ev != nil {
		panic("vips: victim not cleaned before allocate")
	}
	line.Data = msg.LineData
	line.State.private = l.pending.req.Private
	l.mesh.Free(msg)
	l.finishDRF(line, mem.DefaultL1Latency)
}

// evictFor writes back and drops the victim line for a fill of addr, if
// the set is full. Eviction write-throughs complete in the background;
// only fences wait for them (via wtOutstanding).
func (l *L1) evictFor(addr memtypes.Addr) {
	v := l.arr.Victim(addr)
	if !v.Valid {
		return
	}
	if v.State.anyDirty() {
		l.writeThrough(v)
	}
	l.arr.Invalidate(v.Addr)
}

// writeThrough sends a line's dirty words to its bank and clears the
// dirty bits.
func (l *L1) writeThrough(line *cache.Line[l1Line]) {
	msg := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: l.bankOf(line.Addr), Kind: MsgWTLine,
		Class: memtypes.ClassWordData, Addr: line.Addr, Core: l.id,
	})
	words := 0
	for i, d := range line.State.dirty {
		if d {
			msg.LineData[i] = line.Data[i]
			msg.Mask[i] = true
			words++
			line.State.dirty[i] = false
		}
	}
	msg.Words = words
	l.stats.WriteThroughs++
	l.wtOutstanding++
	l.mesh.Send(msg)
}

// fence executes self_down (invl=false) or self_invl (invl=true).
func (l *L1) fence(invl bool) {
	l.stats.SelfDowns++
	// Self-downgrade: write through every dirty non-private line.
	l.arr.ForEach(func(line *cache.Line[l1Line]) {
		if line.State.private {
			return
		}
		if line.State.anyDirty() {
			l.writeThrough(line)
		}
	})
	l.pending.fence = true
	l.pending.invlAfter = invl
	if l.wtOutstanding == 0 {
		l.completeFence()
	}
}

// completeFence runs after every outstanding write-through is acked.
func (l *L1) completeFence() {
	if l.pending.invlAfter {
		l.arr.ForEach(func(line *cache.Line[l1Line]) {
			if line.State.private {
				return
			}
			if line.State.anyDirty() {
				panic("vips: dirty line at self-invalidation")
			}
			line.Valid = false
			l.stats.SelfInvls++
		})
	}
	l.respond(mem.DefaultL1Latency, memtypes.Response{})
}

func (l *L1) handleWTAck(msg *memtypes.Message) {
	if l.wtOutstanding == 0 {
		panic(fmt.Sprintf("vips: core %d spurious write-through ack", l.id))
	}
	l.mesh.Free(msg)
	l.wtOutstanding--
	if l.wtOutstanding == 0 && l.pending.fence {
		l.completeFence()
	}
}

// issueRacy forwards a racy operation to the owning LLC bank, bypassing
// the L1 array.
//
//cbsim:hotpath
func (l *L1) issueRacy() {
	req := l.pending.req
	l.stats.RacyOps++
	class := memtypes.ClassControl
	switch req.Kind {
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0, memtypes.OpRMW:
		class = memtypes.ClassWordData
	}
	msg := l.mesh.NewMessage(memtypes.Message{
		Src: l.id, Dst: l.bankOf(req.Addr), Kind: MsgRacy,
		Class: class, Addr: req.Addr, Core: l.id, Req: req, Seq: req.Seq,
	})
	l.mesh.Send(msg)
	cycles.Open(l.obs, l.k.Now(), l.id, cycles.CatNoC)
}

// handleRacyResp completes the outstanding racy operation. The response
// must answer the pending operation itself: a core reuses its Request,
// so the pointer alone cannot tell an earlier operation's late reply
// from the current one, and the sequence number must match too.
//
//cbsim:hotpath
func (l *L1) handleRacyResp(msg *memtypes.Message) {
	req := l.pending.req
	if req == nil {
		panic(fmt.Sprintf("vips: core %d racy response with no pending op", l.id))
	}
	cycles.Close(l.obs, l.k.Now(), l.id)
	if msg.Req != req || msg.Seq != req.Seq {
		panic(fmt.Sprintf("vips: core %d racy response for op %d does not match pending %s op %d",
			l.id, msg.Seq, req.Kind, req.Seq))
	}
	// Keep a resident copy of the word fresh: racy results are at least
	// as new as any cached value, and the line stays clean (the LLC
	// already has the data).
	if line := l.arr.Peek(req.Addr); line != nil {
		w := req.Addr.WordIndex()
		switch req.Kind {
		case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
			line.Data[w] = req.Value
		case memtypes.OpReadThrough, memtypes.OpReadCB:
			line.Data[w] = msg.Value
		}
	}
	resp := memtypes.Response{Value: msg.Value, Stale: msg.Stale}
	l.mesh.Free(msg)
	l.respond(0, resp)
}

// Deliver routes bank-to-L1 messages.
func (l *L1) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgDataLine:
		l.handleDataLine(msg)
	case MsgWTAck:
		l.handleWTAck(msg)
	case MsgRacyResp:
		l.handleRacyResp(msg)
	default:
		panic(fmt.Sprintf("vips: L1 %d cannot handle %s", l.id, msg))
	}
}
