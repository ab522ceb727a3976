package vips

import (
	"fmt"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BankCtrlStats counts LLC bank controller activity beyond the raw
// mem.BankStats access counters.
type BankCtrlStats struct {
	RacyReads     uint64
	RacyWrites    uint64
	RMWs          uint64
	CBDirAccesses uint64 // callback-directory consultations
	Wakes         uint64 // callbacks serviced by writes
	StaleWakes    uint64 // callbacks answered by directory evictions
	Deferred      uint64 // operations queued behind a locked line
	QueuedRMWs    uint64 // RMWs held by the VIPS-M blocking bit
	QueueWakes    uint64 // queued RMWs replayed by a release
}

// Bank is one LLC bank controller: it owns a slice of the address space,
// serves line fills and write-throughs, executes racy operations and
// atomics (with per-line MSHR locking, Section 2.6), and hosts the bank's
// callback directory when the protocol runs in callback mode.
type Bank struct {
	k     *sim.Kernel
	self  sim.ActorID
	id    memtypes.NodeID
	mesh  *noc.Mesh
	store *mem.Store
	data  *mem.Bank

	mode     Mode
	cbdir    *core.Directory
	cbdirLat uint64

	// chaos, when non-nil, injects directory-level faults (forced
	// evictions, spurious wakes, delayed wake visibility) and LLC
	// latency jitter; nil on the default path.
	//cbvet:ephemeral wiring pointer installed at construction; the engine's RNG state is snapshotted by the machine
	chaos *chaos.Engine

	// queueLocks holds the ModeQueueLock blocking bits and FIFO queues
	// (see queuelock.go).
	queueLocks map[memtypes.Addr]*qlState

	// busy and deferq implement the per-line LLC MSHR lock: operations
	// on a locked line queue FIFO until the holder releases. freeQ keeps
	// the backings of emptied queues for reuse.
	busy   map[memtypes.Addr]bool
	deferq map[memtypes.Addr][]*memtypes.Message
	//cbvet:ephemeral allocator free list; holds only emptied queue backings with no protocol meaning
	freeQ [][]*memtypes.Message

	// wakes holds the delayed wakes in flight (see wakeAfter); an
	// evWake event carries its record's index. freeWakes lists the
	// indices of delivered records for reuse.
	//cbvet:ephemeral wakes in flight ride pending kernel events, and a quiescent machine has none
	wakes []wakeRecord
	//cbvet:ephemeral allocator free list; holds only delivered wakes with no protocol meaning
	freeWakes []uint32

	// parked holds callback reads (and RMWs) blocked in the callback
	// directory, keyed by word address then core. A tag's set stays in
	// the map once its waiters are all woken, so the next park on that
	// tag allocates nothing; readers skip empty sets.
	parked map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message

	// obs, when set, receives callback-directory activity (cb.block,
	// cb.wake and cb.stale for the waiting core, cb.occ for this bank)
	// and the stall legs of requester cores' in-flight racy operations
	// (observational only).
	obs trace.Hook

	stats BankCtrlStats
}

// newBank builds the bank controller for node id. cores sizes the
// callback directory's bit vectors; cfg selects back-off vs callback
// mode; e, when non-nil, injects faults.
func newBank(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, cores int, cfg Config, e *chaos.Engine) *Bank {
	b := &Bank{
		k: k, id: id, mesh: mesh, store: store,
		mode:       cfg.Mode,
		chaos:      e,
		data:       mem.NewBank(),
		busy:       make(map[memtypes.Addr]bool),
		deferq:     make(map[memtypes.Addr][]*memtypes.Message),
		parked:     make(map[memtypes.Addr]map[memtypes.NodeID]*memtypes.Message),
		queueLocks: make(map[memtypes.Addr]*qlState),
	}
	if cfg.Mode == ModeCallback {
		b.cbdir = core.New(cfg.CBEntriesPerBank, cores)
		b.cbdir.SetWakePolicy(cfg.WakePolicy)
		b.cbdir.SetEvictPolicy(cfg.CBEvict)
		b.cbdir.SetLineGranular(cfg.CBLineGranular)
		b.cbdirLat = cfg.CBDirLatency
	}
	b.self = k.Register(b)
	return b
}

// Stats returns the controller counters.
func (b *Bank) Stats() BankCtrlStats { return b.stats }

// observe emits a callback event of kind for the waiting core on word w.
func (b *Bank) observe(kind trace.Kind, core memtypes.NodeID, w memtypes.Addr) {
	if b.obs != nil {
		b.obs(trace.Event{Kind: kind, Cycle: b.k.Now(), Node: core, Addr: w})
	}
}

// observeOcc samples the callback directory's occupancy after a
// consultation (the cb.occ event feeding the occupancy histogram). The
// Live scan only runs when an observer is installed.
func (b *Bank) observeOcc(addr memtypes.Addr) {
	if b.obs != nil && b.cbdir != nil {
		b.obs(trace.Event{Kind: trace.KindCBOcc, Cycle: b.k.Now(), Node: b.id, Addr: addr, A: uint64(b.cbdir.Live())})
	}
}

// CBDir exposes the callback directory (nil in back-off mode) for stats.
func (b *Bank) CBDir() *core.Directory { return b.cbdir }

// Bank event stages, passed as the arg of Act. Every event but evWake
// carries the request message it serves.
const (
	evFill      = iota // line read done: send the fill, release the line
	evWTAck            // write-through absorbed: ack it, release the line
	evLoad             // racy load's LLC access done: answer, release the line
	evWriteAck         // racy write's LLC access done: ack, release the line
	evRMW              // atomic's LLC access done: execute it, release the line
	evConsultCB        // callback-directory read of a ld_cb (or RMW ld_cb half) done
	evWake             // delayed wake due: arg-evWake indexes its record in wakes
)

// withLine runs msg's line-locked step under the lock of msg's line, or
// queues msg FIFO behind the current holder. Each locked step schedules
// an event that releases the line when it fires.
//
//cbsim:hotpath
func (b *Bank) withLine(msg *memtypes.Message) {
	line := msg.Addr.Line()
	if b.busy[line] {
		b.stats.Deferred++
		b.deferq[line], b.freeQ = memtypes.Enqueue(b.deferq[line], b.freeQ, msg)
		return
	}
	b.busy[line] = true
	b.locked(msg)
}

// release hands line to its next queued operation, or unlocks it.
//
//cbsim:hotpath
func (b *Bank) release(line memtypes.Addr) {
	if q := b.deferq[line]; len(q) > 0 {
		next, rest, free := memtypes.Dequeue(q, b.freeQ)
		if len(rest) == 0 {
			delete(b.deferq, line)
		} else {
			b.deferq[line] = rest
		}
		b.freeQ = free
		b.locked(next)
		return
	}
	delete(b.busy, line)
}

// locked runs the line-locked step of msg's operation.
//
//cbsim:hotpath
func (b *Bank) locked(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine:
		b.access(msg, msg.Addr, evFill)
	case MsgWTLine:
		b.writeLine(msg)
	default:
		switch msg.Req.Kind {
		case memtypes.OpReadThrough, memtypes.OpReadCB:
			b.access(msg, msg.Req.Addr, evLoad)
		case memtypes.OpRMW:
			b.access(msg, msg.Req.Addr, evRMW)
		default:
			b.writeWord(msg)
		}
	}
}

// access schedules ev for msg after the LLC access to addr, booked to the
// requester as LLC stall.
//
//cbsim:hotpath
func (b *Bank) access(msg *memtypes.Message, addr memtypes.Addr, ev uint64) {
	lat := b.accessLat(addr, true, msg.Req.SyncPhase())
	cycles.Span(b.obs, b.k.Now(), b.k.Now()+lat, msg.Core, cycles.CatLLCStall)
	b.k.Schedule(lat, b.self, msg, ev)
}

// Act fires one of the bank's scheduled events (implements sim.Actor).
//
//cbsim:hotpath
func (b *Bank) Act(msg *memtypes.Message, ev uint64) {
	if ev >= evWake {
		b.deliverWake(uint32(ev - evWake))
		return
	}
	line := msg.Addr.Line()
	switch ev {
	case evFill:
		fill := b.mesh.NewMessage(memtypes.Message{
			Src: b.id, Dst: msg.Src, Kind: MsgDataLine,
			Class: memtypes.ClassLineData, Addr: msg.Addr,
			Core: msg.Core, LineData: b.store.LoadLine(msg.Addr), Seq: msg.Seq,
		})
		b.mesh.Free(msg)
		b.mesh.Send(fill)
		cycles.Open(b.obs, b.k.Now(), fill.Core, cycles.CatNoC)
		b.release(line)
	case evWTAck:
		ack := b.mesh.NewMessage(memtypes.Message{
			Src: b.id, Dst: msg.Src, Kind: MsgWTAck,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		})
		b.mesh.Free(msg)
		b.mesh.Send(ack)
		b.release(line)
	case evLoad:
		b.respond(msg, b.store.Load(msg.Req.Addr), false)
		b.release(line)
	case evWriteAck:
		b.ack(msg)
		b.release(line)
	case evRMW:
		b.executeRMW(msg)
		b.release(line)
	case evConsultCB:
		if b.consultCB(msg) {
			b.withLine(msg)
		}
	default:
		panic(fmt.Sprintf("vips: bank %d unknown event stage %d", b.id, ev))
	}
}

// Deliver routes L1-to-bank messages.
func (b *Bank) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetLine:
		// The demand request's NoC leg ends here.
		cycles.Close(b.obs, b.k.Now(), msg.Core)
		b.withLine(msg)
	case MsgWTLine:
		b.withLine(msg) // background write-through: not a core stall leg
	case MsgRacy:
		cycles.Close(b.obs, b.k.Now(), msg.Core)
		b.handleRacy(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d cannot handle %s", b.id, msg))
	}
}

// writeLine is the line-locked step of a write-through: it stores the
// dirty words and schedules the ack.
func (b *Bank) writeLine(msg *memtypes.Message) {
	b.store.StoreLineWords(msg.Addr, msg.LineData, msg.Mask)
	// An ordinary write-through behaves as a normal write for any
	// callback entries covering its words: reset to All mode and
	// wake everyone (Section 2.4: "any normal write or read
	// resets the A/O bit to All").
	if b.cbdir != nil {
		base := msg.Addr.Line()
		for i, m := range msg.Mask {
			if !m {
				continue
			}
			w := base + memtypes.Addr(i*memtypes.WordBytes)
			if b.cbdir.HasEntry(w) {
				b.wakeAfter(0, b.cbdir.Write(w, memtypes.CBAll), w, msg.LineData[i])
			}
		}
	}
	lat := b.accessLat(msg.Addr, true, 0)
	b.k.Schedule(lat, b.self, msg, evWTAck)
}

func (b *Bank) handleRacy(msg *memtypes.Message) {
	req := msg.Req
	if req == nil {
		panic("vips: racy message without request")
	}
	if b.chaos != nil && b.cbdir != nil {
		b.injectChaos(req.Addr)
	}
	switch req.Kind {
	case memtypes.OpReadThrough:
		b.stats.RacyReads++
		b.readThrough(msg)
	case memtypes.OpReadCB:
		b.stats.RacyReads++
		if b.cbdir == nil {
			// Back-off mode has no callback directory; a ld_cb
			// degenerates to a ld_through.
			b.readThrough(msg)
			return
		}
		b.callbackRead(msg)
	case memtypes.OpWriteThrough, memtypes.OpWriteCB1, memtypes.OpWriteCB0:
		b.stats.RacyWrites++
		b.withLine(msg) // st_through / st_cb1 / st_cb0: see writeWord
	case memtypes.OpRMW:
		b.stats.RMWs++
		b.rmw(msg)
	default:
		panic(fmt.Sprintf("vips: bank %d unexpected racy op %s", b.id, req.Kind))
	}
}

// readThrough serves a non-blocking racy load: consume F/E state if
// available (in parallel with the LLC access) and return the current
// value.
func (b *Bank) readThrough(msg *memtypes.Message) {
	if b.cbdir != nil {
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), msg.Req.Addr)
		b.observeOcc(msg.Req.Addr)
	}
	b.withLine(msg)
}

// callbackRead serves a ld_cb: consult the directory first (1 cycle);
// satisfied reads proceed to the LLC, blocked reads park without holding
// the line lock.
func (b *Bank) callbackRead(msg *memtypes.Message) {
	b.stats.CBDirAccesses++
	cycles.Span(b.obs, b.k.Now(), b.k.Now()+b.cbdirLat, msg.Core, cycles.CatCoherenceStall)
	b.k.Schedule(b.cbdirLat, b.self, msg, evConsultCB)
}

// consultCB performs the callback-directory read of a ld_cb or of an
// RMW's ld_cb half. It parks a blocked operation and reports whether the
// operation may proceed to the LLC.
func (b *Bank) consultCB(msg *memtypes.Message) bool {
	res, ev, evicted := b.cbdir.CallbackRead(int(msg.Core), msg.Req.Addr)
	if evicted {
		b.answerEviction(ev)
	}
	b.observeOcc(msg.Req.Addr)
	if res == core.ReadBlocked {
		b.park(msg)
		return false
	}
	return true
}

// writeWord is the line-locked step of a racy write: write the word,
// wake the selected callbacks (directory consulted in parallel with the
// LLC), and schedule the writer's ack.
func (b *Bank) writeWord(msg *memtypes.Message) {
	req := msg.Req
	b.store.StoreWord(req.Addr, req.Value)
	b.qlRelease(req.Addr)
	if b.cbdir != nil {
		b.stats.CBDirAccesses++
		mode := cbWriteMode(req.Kind)
		wakes := b.cbdir.Write(req.Addr, mode)
		b.observeOcc(req.Addr)
		b.wakeAfter(b.cbdirLat, wakes, req.Addr, req.Value)
	}
	b.access(msg, req.Addr, evWriteAck)
}

func cbWriteMode(k memtypes.OpKind) memtypes.CBWrite {
	switch k {
	case memtypes.OpWriteThrough:
		return memtypes.CBAll
	case memtypes.OpWriteCB1:
		return memtypes.CBOne
	case memtypes.OpWriteCB0:
		return memtypes.CBZero
	}
	panic(fmt.Sprintf("vips: %s is not a racy write", k))
}

// rmw serves an atomic. The load half consults the callback directory
// (blocking the whole RMW if it is a ld_cb and the value was consumed);
// once admitted, the RMW locks the line and executes read-modify-write in
// one LLC access.
func (b *Bank) rmw(msg *memtypes.Message) {
	req := msg.Req
	if b.cbdir != nil && req.RMWLdCB {
		b.stats.CBDirAccesses++
		cycles.Span(b.obs, b.k.Now(), b.k.Now()+b.cbdirLat, msg.Core, cycles.CatCoherenceStall)
		b.k.Schedule(b.cbdirLat, b.self, msg, evConsultCB)
		return
	}
	if b.cbdir != nil {
		// The plain-load half still consumes available F/E state.
		b.stats.CBDirAccesses++
		b.cbdir.ReadThrough(int(msg.Core), req.Addr)
		b.observeOcc(req.Addr)
	}
	b.withLine(msg)
}

// executeRMW performs the atomic once its LLC access under the line lock
// is done; the caller releases the line.
func (b *Bank) executeRMW(msg *memtypes.Message) {
	req := msg.Req
	old := b.store.Load(req.Addr)
	if b.qlMaybeQueue(msg, old) {
		// VIPS-M blocking bit: the failing test-style RMW is held at
		// the controller; the line lock is released so the eventual
		// releasing write can proceed.
		return
	}
	newVal, writes := req.RMW.Apply(old, req.Expect, req.Arg)
	if writes {
		b.store.StoreWord(req.Addr, newVal)
		if b.cbdir != nil {
			b.stats.CBDirAccesses++
			wakes := b.cbdir.Write(req.Addr, req.RMWSt)
			b.observeOcc(req.Addr)
			b.wakeAfter(0, wakes, req.Addr, newVal)
		}
		if req.RMW == memtypes.RMWSwap || req.RMW == memtypes.RMWFetchAdd {
			// Unconditional atomics (signals) release queued
			// waiters too.
			b.qlRelease(req.Addr)
		}
	}
	// A failed RMW writes nothing and services no callbacks (the
	// "Unblock" case of Section 2.6).
	b.respond(msg, old, false)
}

// park records a blocked callback read or RMW until a write (or an
// eviction) services it, keyed by the directory tag.
func (b *Bank) park(msg *memtypes.Message) {
	w := b.cbdir.Tag(msg.Req.Addr)
	m := b.parked[w]
	if m == nil {
		m = make(map[memtypes.NodeID]*memtypes.Message)
		b.parked[w] = m
	}
	if _, dup := m[msg.Core]; dup {
		panic(fmt.Sprintf("vips: bank %d core %d parked twice on %s", b.id, msg.Core, w))
	}
	m[msg.Core] = msg
	b.observe(trace.KindCBBlock, msg.Core, w)
}

// parkedOps counts the operations parked in the callback directory.
func (b *Bank) parkedOps() int {
	n := 0
	//cbvet:unordered commutative sum over parked sets
	for _, m := range b.parked {
		n += len(m)
	}
	return n
}

// wake services callbacks: parked plain reads are answered directly with
// the written value ("wakeup messages carry the newly created value");
// parked RMWs re-enter execution at the LLC.
// cores is a core mask (bit c = core c), serviced in ascending core
// order.
func (b *Bank) wake(cores uint64, addr memtypes.Addr, value uint64, stale bool) {
	if cores == 0 {
		return
	}
	w := b.cbdir.Tag(addr)
	m := b.parked[w]
	for ; cores != 0; cores &= cores - 1 {
		c := bits.TrailingZeros64(cores)
		id := memtypes.NodeID(c)
		parked := m[id]
		if parked == nil {
			panic(fmt.Sprintf("vips: bank %d woke core %d on %s with no parked op", b.id, c, w))
		}
		delete(m, id)
		if stale {
			b.stats.StaleWakes++
			b.observe(trace.KindCBStale, id, w)
		} else {
			b.stats.Wakes++
			b.observe(trace.KindCBWake, id, w)
		}
		if parked.Req.Kind == memtypes.OpRMW {
			b.withLine(parked) // re-enter execution under the line lock
			continue
		}
		b.respond(parked, value, stale)
	}
}

// answerEviction services the waiters of an evicted directory entry with
// the current value (Section 2.3.1).
func (b *Bank) answerEviction(ev core.Eviction) {
	b.wake(ev.Waiters, ev.Addr, b.store.Load(ev.Addr), true)
}

// respond sends a racy-op completion carrying a data word and recycles
// the request message: it is the terminal step of the operation.
func (b *Bank) respond(msg *memtypes.Message, value uint64, stale bool) {
	resp := b.mesh.NewMessage(memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassWordData, Addr: msg.Req.Addr,
		Core: msg.Core, Value: value, Stale: stale, Req: msg.Req, Seq: msg.Seq,
	})
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	cycles.Open(b.obs, b.k.Now(), resp.Core, cycles.CatNoC)
}

// ack sends a store completion (control message) and recycles the
// request message.
func (b *Bank) ack(msg *memtypes.Message) {
	resp := b.mesh.NewMessage(memtypes.Message{
		Src: b.id, Dst: msg.Src, Kind: MsgRacyResp,
		Class: memtypes.ClassControl, Addr: msg.Req.Addr,
		Core: msg.Core, Value: msg.Req.Value, Req: msg.Req, Seq: msg.Seq,
	})
	b.mesh.Free(msg)
	b.mesh.Send(resp)
	cycles.Open(b.obs, b.k.Now(), resp.Core, cycles.CatNoC)
}
