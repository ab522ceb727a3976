// Package trace is the simulator's one observation stream. Every
// component (core, mesh, tile) emits typed Events through a single
// nil-guarded Hook, and everything that watches a run subscribes to that
// stream as a Sink: a live writer, a bounded ring buffer, a Chrome
// trace-event (catapult) exporter, the obs histogram collector, and the
// cycle-accounting accumulator (internal/cycles). Events carry only
// numbers; strings are rendered by the sinks that write text or JSON, so
// emitting costs no allocation. It is the first tool to reach for when a
// protocol run misbehaves, and the feed for the observability layer.
package trace

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/obs"
)

// Kind tags an Event. The traced kinds come first; trace sinks see only
// those (Traced). The rest are cycle-accounting bookkeeping that only
// the accumulator subscribes to. Per kind, the operands mean:
//
//	Kind          Node          Addr     A                 B
//	send          source        message  src<<32|dst       core<<32|class<<16|msg kind
//	deliver       destination   message  src<<32|dst       core<<32|class<<16|msg kind
//	cb.block      waiting core  word     -                 -
//	cb.wake       waiting core  word     -                 -
//	cb.stale      waiting core  word     -                 -
//	cb.occ        bank          address  live entries      -
//	sync.begin    core          -        -                 sync kind
//	sync.end      core          -        cycles spent      sync kind
//	spin.wait     core          -        wait cycles       sync kind
//	mon.arm       core          line     -                 -
//	mon.wake      core          line     -                 -
//	exec          core          -        cycles retired    sync kind
//	stall.begin   core          -        sync kind         default category
//	stall.end     core          -        -                 -
//	done          core          -        -                 -
//	open          core          -        category          -
//	close         core          -        -                 -
//	span          core          -        end cycle         category
//
// send/deliver are network injection and arrival; cb.block parks a
// callback read in the directory and cb.wake/cb.stale service it (by a
// write or an eviction); cb.occ samples directory occupancy after a
// consultation; spin.wait is a back-off wait; mon.arm/mon.wake are
// MONITOR/MWAIT activity (quiesce extension). The accounting kinds feed
// internal/cycles: a core retired a batch (exec), a memory stall began
// or ended, the core finished, a component opened or closed an
// open-ended leg of the in-flight stall, or claimed a closed interval of
// it (span). Categories are cycles.Category values. cb.block and mon.arm
// also open a blocked leg, cb.wake/cb.stale/mon.wake close it, and
// spin.wait books its wait cycles, so those moments are one event each.
type Kind uint8

const (
	KindSend Kind = iota
	KindDeliver
	KindCBBlock
	KindCBWake
	KindCBStale
	KindCBOcc
	KindSyncBegin
	KindSyncEnd
	KindSpinWait
	KindMonArm
	KindMonWake
	KindExec
	KindStallBegin
	KindStallEnd
	KindDone
	KindOpen
	KindClose
	KindSpan
	numKinds
)

var kindNames = [numKinds]string{
	"send", "deliver", "cb.block", "cb.wake", "cb.stale", "cb.occ",
	"sync.begin", "sync.end", "spin.wait", "mon.arm", "mon.wake",
	"exec", "stall.begin", "stall.end", "done", "open", "close", "span",
}

// String names the kind (the label text sinks render).
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Traced reports whether trace sinks see events of this kind; the other
// kinds exist only for cycle accounting.
func (k Kind) Traced() bool { return k < KindExec }

// Event is one observed occurrence; see Kind for the operands.
type Event struct {
	Kind  Kind
	Cycle uint64
	Node  memtypes.NodeID
	Addr  memtypes.Addr
	A, B  uint64
}

// Hook is the observer a component calls for every event. Components
// keep it in a nil-guarded func field installed by their SetObserver
// method; a nil hook costs one branch.
type Hook func(Event)

// Message builds the send or deliver event of msg at node.
//
//cbsim:hotpath
func Message(k Kind, cycle uint64, node memtypes.NodeID, msg *memtypes.Message) Event {
	return Event{
		Kind: k, Cycle: cycle, Node: node, Addr: msg.Addr,
		// The route lets consumers pair send with deliver (X-Y routing is
		// FIFO per route).
		A: uint64(msg.Src)<<32 | uint64(msg.Dst),
		B: uint64(uint32(msg.Core))<<32 | uint64(msg.Class)<<16 | uint64(msg.Kind),
	}
}

// MsgCore is the requester core a send or deliver event's message is
// tagged with.
func (e Event) MsgCore() memtypes.NodeID { return memtypes.NodeID(int32(e.B >> 32)) }

// Note renders the event's detail text: the message kind, class and
// route of a send or deliver, the phase of a sync.begin or sync.end,
// and "" otherwise.
func (e Event) Note() string {
	switch e.Kind {
	case KindSend, KindDeliver:
		return fmt.Sprintf("kind=%#x %s %d->%d", uint16(e.B), memtypes.MsgClass(e.B>>16), e.A>>32, uint32(e.A))
	case KindSyncBegin, KindSyncEnd:
		return isa.SyncKind(e.B).String()
	}
	return ""
}

func (e Event) String() string {
	return fmt.Sprintf("[%8d] node %2d %-10s %-10s %s", e.Cycle, e.Node, e.Kind, e.Addr, e.Note())
}

// Sink consumes events.
type Sink interface {
	Emit(Event)
}

// Ring is a bounded in-memory sink keeping the most recent events.
type Ring struct {
	buf   []Event
	next  int
	count int
	// FilterLine, when non-nil, keeps only events on the same cache line
	// (nil keeps everything — including line 0, which the old zero-Addr
	// sentinel could not express).
	FilterLine *memtypes.Addr
}

// NewRing builds a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1024
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	if r.FilterLine != nil && e.Addr.Line() != r.FilterLine.Line() {
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Len reports the number of retained events.
func (r *Ring) Len() int { return r.count }

// Dump renders the retained events to w.
func (r *Ring) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e)
	}
}

// Writer is a sink that renders events immediately (streams a live
// trace).
type Writer struct {
	W io.Writer
	// FilterLine, when non-nil, keeps only events on the same cache line
	// (nil keeps all).
	FilterLine *memtypes.Addr
}

// Emit implements Sink.
func (w *Writer) Emit(e Event) {
	if w.FilterLine != nil && e.Addr.Line() != w.FilterLine.Line() {
		return
	}
	fmt.Fprintln(w.W, e)
}

// Locked wraps a sink with a mutex so several simulations can emit into
// it concurrently (parallel experiment sweeps). The underlying sink sees
// a serialized event stream; relative ordering across concurrent
// simulations is unspecified.
type Locked struct {
	mu sync.Mutex
	s  Sink
}

// NewLocked returns a concurrency-safe view of s.
func NewLocked(s Sink) *Locked { return &Locked{s: s} }

// Emit implements Sink.
func (l *Locked) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Emit(e)
}

// Multi fans events out to several sinks.
type Multi []Sink

// Emit implements Sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Summarize aggregates an event slice into "kind -> count" lines, useful
// in tests and quick looks. It sits on the shared obs.Tally primitive.
func Summarize(events []Event) string {
	t := obs.NewTally()
	for _, e := range events {
		t.Inc(e.Kind.String())
	}
	return t.String()
}
