package mesi

import (
	"fmt"
	"math/bits"

	"repro/internal/chaos"
	"repro/internal/cycles"
	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DirStats counts directory activity.
type DirStats struct {
	GetS       uint64
	GetX       uint64
	InvsSent   uint64
	Forwards   uint64
	Writebacks uint64
	Deferred   uint64 // requests queued behind a busy line
	EGrants    uint64 // DataE responses
}

// dirLine is the directory state for one line: an owner pointer (E or M
// copy) or a sharer bit-vector. Lines absent from the map are uncached.
type dirLine struct {
	owner   int // node holding E/M, -1 if none
	sharers uint64
}

// trans is an in-flight directory transaction holding the line busy.
// A transaction that waits on forwards or invalidation acks keeps its
// continuation as data: when they complete, msg is granted kind grant
// (see resume).
type trans struct {
	acksPending int
	msg         *memtypes.Message // request waiting to be granted; nil if none
	grant       memtypes.MsgKind  // data kind to grant msg
	owner       int               // forwarded-to owner (GetS forwards)
}

// Dir is one LLC bank's directory controller. The directory state itself
// is unbounded (a full map); the bank's data array only decides whether
// an access pays the memory latency. Directory capacity effects are
// outside the paper's scope.
type Dir struct {
	k     *sim.Kernel
	self  sim.ActorID
	id    memtypes.NodeID
	mesh  *noc.Mesh
	store *mem.Store
	data  *mem.Bank

	lines map[memtypes.Addr]*dirLine
	busy  map[memtypes.Addr]*trans
	// deferq holds the requests that arrived while their line was busy,
	// in arrival order; end replays them one at a time. freeQ keeps the
	// backings of emptied queues for the next line that needs one, so
	// steady-state deferral allocates nothing.
	deferq map[memtypes.Addr][]*memtypes.Message
	//cbvet:ephemeral allocator free list; holds only emptied queue backings with no protocol meaning
	freeQ [][]*memtypes.Message

	// freeTrans recycles finished transactions.
	//cbvet:ephemeral allocator free list; holds only finished transactions with no protocol meaning
	freeTrans []*trans

	// chaos, when non-nil, jitters LLC bank access latencies (fault
	// injection; nil on the default path).
	//cbvet:ephemeral wiring pointer installed at construction; the engine's RNG state is snapshotted by the machine
	chaos *chaos.Engine

	// obs, when set, receives the stall legs of requester cores'
	// in-flight misses (observational only).
	obs trace.Hook

	stats DirStats
}

// accessLat returns the LLC access latency for addr, plus chaos jitter.
func (d *Dir) accessLat(addr memtypes.Addr, needData bool, syncKind uint8) uint64 {
	lat := d.data.Access(addr, needData, syncKind)
	if d.chaos != nil {
		lat += d.chaos.LLCJitter()
	}
	return lat
}

// newDir builds the directory bank for node id; e, when non-nil,
// jitters its access latencies.
func newDir(k *sim.Kernel, id memtypes.NodeID, mesh *noc.Mesh, store *mem.Store, e *chaos.Engine) *Dir {
	d := &Dir{
		k: k, id: id, mesh: mesh, store: store, chaos: e,
		data:   mem.NewBank(),
		lines:  make(map[memtypes.Addr]*dirLine),
		busy:   make(map[memtypes.Addr]*trans),
		deferq: make(map[memtypes.Addr][]*memtypes.Message),
	}
	d.self = k.Register(d)
	return d
}

// Stats returns the directory counters.
func (d *Dir) Stats() DirStats { return d.stats }

// Sharers reports the sharer count and owner for a line (tests).
func (d *Dir) Sharers(addr memtypes.Addr) (sharers int, owner int) {
	l := d.line(addr)
	return bits.OnesCount64(l.sharers), l.owner
}

func (d *Dir) line(addr memtypes.Addr) *dirLine {
	line := addr.Line()
	l, ok := d.lines[line]
	if !ok {
		l = &dirLine{owner: -1}
		d.lines[line] = l
	}
	return l
}

// admit serves msg now if its line is idle, otherwise defers it.
//
//cbsim:hotpath
func (d *Dir) admit(msg *memtypes.Message) {
	line := msg.Addr.Line()
	if d.busy[line] != nil {
		d.stats.Deferred++
		d.deferq[line], d.freeQ = memtypes.Enqueue(d.deferq[line], d.freeQ, msg)
		return
	}
	d.serve(msg)
}

// serve runs an admitted request.
func (d *Dir) serve(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS:
		d.handleGetS(msg)
	case MsgGetX:
		d.handleGetX(msg)
	case MsgPutM, MsgPutE:
		d.handlePut(msg)
	default:
		panic(fmt.Sprintf("mesi: dir %d cannot serve %s", d.id, msg))
	}
}

// begin marks the line busy for a multi-message transaction.
//
//cbsim:hotpath
func (d *Dir) begin(addr memtypes.Addr) *trans {
	line := addr.Line()
	if d.busy[line] != nil {
		panic(fmt.Sprintf("mesi: dir %d transaction overlap on %s", d.id, line))
	}
	var t *trans
	if n := len(d.freeTrans); n > 0 {
		t = d.freeTrans[n-1]
		d.freeTrans = d.freeTrans[:n-1]
	} else {
		t = &trans{} //cbvet:alloc-ok free-list growth, bounded by the peak number of concurrent transactions
	}
	d.busy[line] = t
	return t
}

// end completes the line's transaction and replays one deferred request.
//
//cbsim:hotpath
func (d *Dir) end(addr memtypes.Addr) {
	line := addr.Line()
	t := d.busy[line]
	if t == nil {
		panic(fmt.Sprintf("mesi: dir %d ending idle line %s", d.id, line))
	}
	delete(d.busy, line)
	*t = trans{}
	d.freeTrans = append(d.freeTrans, t)
	if q := d.deferq[line]; len(q) > 0 {
		next, rest, free := memtypes.Dequeue(q, d.freeQ)
		if len(rest) == 0 {
			delete(d.deferq, line)
		} else {
			d.deferq[line] = rest
		}
		d.freeQ = free
		d.serve(next)
	}
}

// cycArrive closes the requester's NoC leg when its request reaches the
// directory and, if the line is busy (the request will be deferred),
// opens a coherence leg covering the wait behind the in-flight
// transaction.
func (d *Dir) cycArrive(msg *memtypes.Message) {
	if d.obs == nil {
		return
	}
	cycles.Close(d.obs, d.k.Now(), msg.Core)
	if d.busy[msg.Addr.Line()] != nil {
		cycles.Open(d.obs, d.k.Now(), msg.Core, cycles.CatCoherenceStall)
	}
}

// Deliver routes L1-to-directory messages.
func (d *Dir) Deliver(msg *memtypes.Message) {
	switch msg.Kind {
	case MsgGetS, MsgGetX:
		d.cycArrive(msg)
		d.admit(msg)
	case MsgPutM, MsgPutE:
		d.admit(msg)
	case MsgInvAck:
		d.handleInvAck(msg)
	case MsgDataWB:
		d.handleDataWB(msg)
	default:
		panic(fmt.Sprintf("mesi: dir %d cannot handle %s", d.id, msg))
	}
}

// grant sends a kind data response to msg's requester after an LLC
// access, through a Dir event. It is the terminal step of every GetS/GetX
// transaction.
//
//cbsim:hotpath
func (d *Dir) grant(msg *memtypes.Message, kind memtypes.MsgKind) {
	lat := d.accessLat(msg.Addr, true, msg.Req.SyncPhase())
	cycles.Span(d.obs, d.k.Now(), d.k.Now()+lat, msg.Core, cycles.CatLLCStall)
	d.k.Schedule(lat, d.self, msg, uint64(kind))
}

// Act fires a grant scheduled by grant (implements sim.Actor): msg is
// the request message and kind the data kind. It sends the line, ends
// the transaction (replaying one deferred request), and recycles the
// request.
//
//cbsim:hotpath
func (d *Dir) Act(msg *memtypes.Message, kind uint64) {
	resp := d.mesh.NewMessage(memtypes.Message{
		Src: d.id, Dst: msg.Src, Kind: memtypes.MsgKind(kind),
		Class: memtypes.ClassLineData, Addr: msg.Addr, Core: msg.Core,
		LineData: d.store.LoadLine(msg.Addr), Seq: msg.Seq,
	})
	d.mesh.Send(resp)
	cycles.Open(d.obs, d.k.Now(), resp.Core, cycles.CatNoC)
	d.end(msg.Addr)
	d.mesh.Free(msg)
}

// resume finishes a transaction whose forwards or invalidation acks have
// all arrived: the line takes its new owner or sharers and the waiting
// request is granted.
func (d *Dir) resume(t *trans) {
	msg := t.msg
	t.msg = nil
	cycles.Close(d.obs, d.k.Now(), msg.Core)
	l := d.line(msg.Addr)
	if t.grant == MsgDataS {
		l.owner = -1
		l.sharers = 1<<uint(t.owner) | 1<<uint(msg.Src)
	} else {
		l.owner = int(msg.Src)
		l.sharers = 0
	}
	d.grant(msg, t.grant)
}

func (d *Dir) handleGetS(msg *memtypes.Message) {
	d.stats.GetS++
	// End the deferral leg of a replayed request.
	cycles.Close(d.obs, d.k.Now(), msg.Core)
	l := d.line(msg.Addr)
	r := int(msg.Src)
	if l.owner >= 0 {
		// Forward to the owner; it downgrades to S and returns data.
		t := d.begin(msg.Addr)
		d.stats.Forwards++
		owner := l.owner
		fwd := d.mesh.NewMessage(memtypes.Message{
			Src: d.id, Dst: memtypes.NodeID(owner), Kind: MsgFwdGetS,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		})
		d.mesh.Send(fwd)
		// The owner round trip is coherence work.
		cycles.Open(d.obs, d.k.Now(), msg.Core, cycles.CatCoherenceStall)
		t.msg, t.grant, t.owner = msg, MsgDataS, owner
		return
	}
	d.begin(msg.Addr)
	if l.sharers == 0 {
		// No copies: grant clean-exclusive.
		d.stats.EGrants++
		l.owner = r
		d.grant(msg, MsgDataE)
		return
	}
	l.sharers |= 1 << uint(r)
	d.grant(msg, MsgDataS)
}

func (d *Dir) handleGetX(msg *memtypes.Message) {
	d.stats.GetX++
	// End the deferral leg of a replayed request.
	cycles.Close(d.obs, d.k.Now(), msg.Core)
	l := d.line(msg.Addr)
	r := int(msg.Src)
	if l.owner >= 0 && l.owner != r {
		// Forward to the owner; it invalidates and returns data.
		t := d.begin(msg.Addr)
		d.stats.Forwards++
		fwd := d.mesh.NewMessage(memtypes.Message{
			Src: d.id, Dst: memtypes.NodeID(l.owner), Kind: MsgFwdGetX,
			Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
		})
		d.mesh.Send(fwd)
		// The owner round trip is coherence work.
		cycles.Open(d.obs, d.k.Now(), msg.Core, cycles.CatCoherenceStall)
		t.msg, t.grant = msg, MsgDataX
		return
	}
	toInv := l.sharers &^ (1 << uint(r))
	if l.owner == r {
		// The owner re-requests after an in-flight writeback raced:
		// FIFO ordering means the Put always arrives first, so this
		// indicates a silent refetch; just re-grant.
		toInv = 0
	}
	t := d.begin(msg.Addr)
	if toInv != 0 {
		// Invalidate every other sharer and collect acks here before
		// granting data.
		t.acksPending = bits.OnesCount64(toInv)
		for n := 0; toInv != 0; n++ {
			if toInv&1 != 0 {
				d.stats.InvsSent++
				inv := d.mesh.NewMessage(memtypes.Message{
					Src: d.id, Dst: memtypes.NodeID(n), Kind: MsgInv,
					Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
				})
				d.mesh.Send(inv)
			}
			toInv >>= 1
		}
		// The invalidation round is coherence work.
		cycles.Open(d.obs, d.k.Now(), msg.Core, cycles.CatCoherenceStall)
		t.msg, t.grant = msg, MsgDataX
		return
	}
	l.owner = r
	l.sharers = 0
	d.grant(msg, MsgDataX)
}

func (d *Dir) handlePut(msg *memtypes.Message) {
	d.stats.Writebacks++
	l := d.line(msg.Addr)
	if l.owner == int(msg.Src) {
		l.owner = -1
		if msg.Kind == MsgPutM {
			// The data array absorbs the writeback. Values are
			// already globally committed (the M copy wrote through
			// to the store at write time), so only latency and
			// presence are modelled here.
			d.data.Access(msg.Addr, true, 0)
		}
	}
	// A Put from a non-owner is stale (the line was forwarded away in
	// the meantime): ack and ignore.
	ack := d.mesh.NewMessage(memtypes.Message{
		Src: d.id, Dst: msg.Src, Kind: MsgWBAck,
		Class: memtypes.ClassControl, Addr: msg.Addr, Core: msg.Core,
	})
	d.mesh.Free(msg)
	d.mesh.Send(ack)
}

func (d *Dir) handleInvAck(msg *memtypes.Message) {
	t := d.busy[msg.Addr.Line()]
	if t == nil || t.acksPending == 0 {
		panic(fmt.Sprintf("mesi: dir %d spurious InvAck for %s", d.id, msg.Addr))
	}
	d.mesh.Free(msg)
	t.acksPending--
	if t.acksPending == 0 {
		d.resume(t)
	}
}

func (d *Dir) handleDataWB(msg *memtypes.Message) {
	t := d.busy[msg.Addr.Line()]
	if t == nil || t.msg == nil {
		panic(fmt.Sprintf("mesi: dir %d spurious DataWB for %s", d.id, msg.Addr))
	}
	d.mesh.Free(msg)
	d.resume(t)
}
