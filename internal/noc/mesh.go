// Package noc models the on-chip interconnect: a 2-dimensional mesh with
// deterministic X-Y routing, matching the GARNET configuration in Table 2
// of the paper (8x8 mesh, 16-byte flits, 6-cycle switch-to-switch time).
//
// Messages are forwarded hop by hop. Each directional link serializes the
// flits of a message (one flit per cycle), so back-to-back messages on hot
// links queue up — the contention that makes invalidation storms and LLC
// spinning expensive. Traffic is accounted in flit-hops, the same unit
// GARNET reports.
package noc

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/memtypes"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Default timing parameters (Table 2).
const (
	DefaultSwitchLatency = 6 // cycles per switch-to-switch hop
	DefaultLocalLatency  = 1 // cycles for a message that stays on-tile
)

// Handler consumes messages delivered to a node.
type Handler interface {
	Deliver(msg *memtypes.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*memtypes.Message)

// Deliver calls f(msg).
func (f HandlerFunc) Deliver(msg *memtypes.Message) { f(msg) }

type direction int

const (
	dirEast direction = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// Stats accumulates network traffic counters.
type Stats struct {
	Messages uint64 // messages injected
	Flits    uint64 // flits injected (message sizes)
	FlitHops uint64 // flits x hops traversed: the traffic metric
	Hops     uint64 // message-hops traversed
	LinkWait uint64 // cycles messages spent waiting for busy links
}

// Mesh is a width x height 2D mesh network.
type Mesh struct {
	k             *sim.Kernel
	self          sim.ActorID // the mesh's own actor ID: hops are mesh events
	width, height int
	// handlers holds the per-node delivery endpoints installed by
	// Attach during machine wiring.
	//cbvet:ephemeral wiring: delivery endpoints are re-attached at construction, not restored
	handlers []Handler
	// linkFree[node][dir] is the first cycle the outgoing link of node
	// in direction dir is idle.
	linkFree [][numDirs]uint64
	// linkBusy[node][dir] accumulates the cycles the link spent
	// serializing flits (for end-of-run utilization reporting).
	linkBusy [][numDirs]uint64
	stats    Stats

	// pool recycles Messages: senders allocate with NewMessage and the
	// final consumer returns them with Free, so steady-state traffic
	// performs no heap allocations.
	pool memtypes.MsgPool

	// obs, when set, receives a send event at every injection and a
	// deliver event at every arrival (observational only).
	obs trace.Hook

	// ideal disables link contention and serialization: messages
	// arrive after pure distance latency (ablation mode).
	//cbvet:ephemeral ablation configuration fixed at wiring time, never changed mid-run
	ideal bool

	// chaos, when non-nil, injects per-message send delays and per-hop
	// jitter (fault injection; nil on the default path).
	//cbvet:ephemeral wiring pointer installed at construction; the engine's RNG state is snapshotted by the machine
	chaos *chaos.Engine
	// chaosFloor keeps chaos-perturbed times monotone where the real
	// network is FIFO: links (and per-node injection/local delivery)
	// must not reorder the messages they carry — the coherence
	// protocols assume point-to-point order, and jitter that swapped
	// two messages on one link would inject a fault no mesh can
	// produce. Delays still reorder traffic across different routes.
	// Indexed like linkFree, with two extra virtual directions per
	// node: injection into the network and local (src==dst) delivery.
	//cbvet:ephemeral snapshot-captured but deliberately excluded from digests so a chaos run does not digest-diverge from a fault-free twin before any fault lands (see digest.go)
	chaosFloor [][numDirs + 2]uint64

	// live counts messages handed out by NewMessage and not yet
	// returned with Free. It must be zero once the machine quiesces:
	// a positive residue is a leaked message, a negative one a double
	// free (message conservation, checked by machine.CheckInvariants).
	live int
	// peakLive is live's high-water mark: the number of messages the
	// pool has ever had out at once, and so its size.
	//cbvet:ephemeral diagnostic high-water mark; never read by the protocols
	peakLive int

	// dbg carries the double-free guard state; it is an empty struct
	// unless built with -tags cbsimdebug (see mesh_debug.go).
	dbg meshDebug
}

// New builds a width x height mesh on kernel k with default latencies.
// e, when non-nil, injects faults: messages may be held back at their
// source (opening reordering windows across routes) and every hop may
// pick up jitter, while each link stays FIFO. ideal selects
// contentionless mode: no link serialization or queueing, pure hops x
// switch latency, with traffic still accounted in flit-hops (used to
// check that conclusions are not artifacts of the contention model).
func New(k *sim.Kernel, width, height int, e *chaos.Engine, ideal bool) *Mesh {
	if width <= 0 || height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	m := &Mesh{
		k:        k,
		width:    width,
		height:   height,
		handlers: make([]Handler, width*height),
		linkFree: make([][numDirs]uint64, width*height),
		linkBusy: make([][numDirs]uint64, width*height),
		ideal:    ideal,
		chaos:    e,
	}
	if e != nil {
		m.chaosFloor = make([][numDirs + 2]uint64, width*height)
	}
	m.self = k.Register(m)
	return m
}

// Virtual chaosFloor slots beyond the four link directions.
const (
	floorInject = int(numDirs)     // entry of a message into the network at its source
	floorLocal  = int(numDirs) + 1 // delivery of a src==dst message
)

// chaosClamp returns t raised to the floor of the given FIFO domain and
// records it, so successive events in that domain never reorder.
func (m *Mesh) chaosClamp(node memtypes.NodeID, slot int, t uint64) uint64 {
	if f := m.chaosFloor[node][slot]; t < f {
		t = f
	}
	m.chaosFloor[node][slot] = t
	return t
}

// LiveMessages reports how many pool messages are currently in flight
// (allocated by NewMessage, not yet Freed). Negative means a double free
// slipped past the cbsimdebug guard.
func (m *Mesh) LiveMessages() int { return m.live }

// PeakLiveMessages reports the most messages ever in flight at once.
func (m *Mesh) PeakLiveMessages() int { return m.peakLive }

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.width * m.height }

// Attach registers the message handler for node n.
func (m *Mesh) Attach(n memtypes.NodeID, h Handler) {
	m.handlers[m.check(n)] = h
}

// Stats returns a copy of the accumulated traffic counters.
func (m *Mesh) Stats() Stats { return m.stats }

// SetObserver installs the hook that receives a send event at the
// injection and a deliver event at the arrival of every message (nil
// disables).
func (m *Mesh) SetObserver(fn trace.Hook) { m.obs = fn }

// ResetStats zeroes the traffic counters (used to scope measurement to a
// parallel section).
func (m *Mesh) ResetStats() {
	m.stats = Stats{}
	for i := range m.linkBusy {
		m.linkBusy[i] = [numDirs]uint64{}
	}
}

// VisitLinkBusy calls fn once per physically present directional link
// with the cycles that link spent serializing flits — including links
// that stayed idle. Used for end-of-run utilization histograms (busy /
// run cycles per link).
func (m *Mesh) VisitLinkBusy(fn func(node memtypes.NodeID, busy uint64)) {
	for n := range m.linkBusy {
		x, y := m.coords(memtypes.NodeID(n))
		for d := direction(0); d < numDirs; d++ {
			switch d {
			case dirEast:
				if x == m.width-1 {
					continue
				}
			case dirWest:
				if x == 0 {
					continue
				}
			case dirSouth:
				if y == m.height-1 {
					continue
				}
			case dirNorth:
				if y == 0 {
					continue
				}
			}
			fn(memtypes.NodeID(n), m.linkBusy[n][d])
		}
	}
}

// NewMessage returns a message from the mesh's free list holding v.
// Senders pass it to Send; the node that finally consumes it returns it
// with Free. The message keeps its kernel handle (v's is ignored), so a
// recycled message is scheduled without re-entering the kernel's message
// table: fill pooled messages only through here.
//
//cbsim:hotpath
func (m *Mesh) NewMessage(v memtypes.Message) *memtypes.Message {
	m.live++
	if m.live > m.peakLive {
		m.peakLive = m.live
	}
	msg := m.getMessage()
	v.Handle = msg.Handle
	*msg = v
	return msg
}

// Free recycles a message once its final consumer is done with it. The
// caller must not retain msg (or schedule work referencing it) afterwards:
// the pool may reissue it to any later sender. Builds with -tags
// cbsimdebug panic on a double Free and poison freed messages so stale
// readers fail loudly instead of silently corrupting protocol state.
func (m *Mesh) Free(msg *memtypes.Message) {
	m.live--
	m.putMessage(msg)
}

func (m *Mesh) check(n memtypes.NodeID) int {
	if int(n) < 0 || int(n) >= len(m.handlers) {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", n, len(m.handlers)))
	}
	return int(n)
}

func (m *Mesh) coords(n memtypes.NodeID) (x, y int) {
	return int(n) % m.width, int(n) / m.width
}

func (m *Mesh) node(x, y int) memtypes.NodeID {
	return memtypes.NodeID(y*m.width + x)
}

// HopCount returns the number of switch-to-switch hops between two nodes
// under X-Y routing (the Manhattan distance).
func (m *Mesh) HopCount(src, dst memtypes.NodeID) int {
	sx, sy := m.coords(src)
	dx, dy := m.coords(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// Send injects msg into the network. The destination handler's Deliver is
// invoked when the message arrives. Sends to the local node bypass the
// network with a fixed small latency and are not counted as traffic.
//
//cbsim:hotpath
func (m *Mesh) Send(msg *memtypes.Message) {
	m.check(msg.Src)
	m.check(msg.Dst)
	if m.obs != nil {
		m.obs(trace.Message(trace.KindSend, m.k.Now(), msg.Src, msg))
	}
	// Chaos holds the message at its source for delay extra cycles:
	// the mesh itself is the actor, so the held message re-enters the
	// network at its source node without any closure allocation. The
	// clamps keep each FIFO domain (injection, links, local delivery)
	// in order; see chaosFloor.
	var delay uint64
	if m.chaos != nil {
		delay = m.chaos.SendDelay()
	}
	if msg.Src == msg.Dst {
		if m.chaos != nil {
			t := m.chaosClamp(msg.Dst, floorLocal, m.k.Now()+DefaultLocalLatency+delay)
			m.k.At(t, m.self, msg, uint64(msg.Dst))
			return
		}
		m.k.Schedule(DefaultLocalLatency, m.self, msg, uint64(msg.Dst))
		return
	}
	m.stats.Messages++
	m.stats.Flits += uint64(msg.Flits())
	if m.ideal {
		hops := uint64(m.HopCount(msg.Src, msg.Dst))
		m.stats.FlitHops += uint64(msg.Flits()) * hops
		m.stats.Hops += hops
		if m.chaos != nil {
			t := m.chaosClamp(msg.Dst, floorLocal, m.k.Now()+hops*DefaultSwitchLatency+delay)
			m.k.At(t, m.self, msg, uint64(msg.Dst))
			return
		}
		m.k.Schedule(hops*DefaultSwitchLatency, m.self, msg, uint64(msg.Dst))
		return
	}
	if m.chaos != nil {
		if t := m.chaosClamp(msg.Src, floorInject, m.k.Now()+delay); t > m.k.Now() {
			m.k.At(t, m.self, msg, uint64(msg.Src))
			return
		}
	}
	m.hop(msg, msg.Src)
}

// Act implements sim.Actor: it resumes a message at node arg, either
// forwarding it one more hop or delivering it. Scheduling the mesh itself
// as the actor (with the message as payload) makes per-hop routing free of
// closure allocations.
//
//cbsim:hotpath
func (m *Mesh) Act(msg *memtypes.Message, arg uint64) {
	m.hop(msg, memtypes.NodeID(arg))
}

// hop routes msg one step from node at, scheduling the arrival at the next
// router (or the final delivery).
//
//cbsim:hotpath
func (m *Mesh) hop(msg *memtypes.Message, at memtypes.NodeID) {
	if at == msg.Dst {
		m.deliver(msg)
		return
	}
	x, y := m.coords(at)
	dx, dy := m.coords(msg.Dst)
	var dir direction
	var next memtypes.NodeID
	switch {
	// Deterministic X-Y routing: fully resolve X before moving in Y.
	case dx > x:
		dir, next = dirEast, m.node(x+1, y)
	case dx < x:
		dir, next = dirWest, m.node(x-1, y)
	case dy > y:
		dir, next = dirSouth, m.node(x, y+1)
	default:
		dir, next = dirNorth, m.node(x, y-1)
	}

	flits := uint64(msg.Flits())
	now := m.k.Now()
	free := m.linkFree[at][dir]
	depart := now
	if free > now {
		depart = free
		m.stats.LinkWait += free - now
	}
	// The link is busy while the message's flits serialize onto it.
	m.linkFree[at][dir] = depart + flits
	m.linkBusy[at][dir] += flits
	m.stats.FlitHops += flits
	m.stats.Hops++

	arrive := depart + DefaultSwitchLatency
	if m.chaos != nil {
		arrive = m.chaosClamp(at, int(dir), arrive+m.chaos.HopJitter())
	}
	m.k.At(arrive, m.self, msg, uint64(next))
}

//cbsim:hotpath
func (m *Mesh) deliver(msg *memtypes.Message) {
	if m.obs != nil {
		m.obs(trace.Message(trace.KindDeliver, m.k.Now(), msg.Dst, msg))
	}
	h := m.handlers[msg.Dst]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler attached to node %d for %s", msg.Dst, msg))
	}
	h.Deliver(msg)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
