package memtypes

import "fmt"

// MsgClass sizes a network message in flits. The network has 16-byte flits
// (Table 2): a control message is a single header flit, a word-data
// message (racy-op responses and write-throughs carrying one word) adds a
// payload flit, and a line-data message carries a 64-byte line plus the
// header.
type MsgClass uint8

const (
	ClassControl MsgClass = iota
	ClassWordData
	ClassLineData
)

// Flits returns the message size in 16-byte flits.
func (c MsgClass) Flits() int {
	switch c {
	case ClassControl:
		return 1
	case ClassWordData:
		return 2
	case ClassLineData:
		return 1 + LineBytes/16
	}
	panic(fmt.Sprintf("memtypes: unknown MsgClass %d", c))
}

func (c MsgClass) String() string {
	switch c {
	case ClassControl:
		return "ctrl"
	case ClassWordData:
		return "word"
	case ClassLineData:
		return "line"
	}
	return fmt.Sprintf("MsgClass(%d)", uint8(c))
}

// MsgKind identifies the protocol meaning of a message. Kinds are declared
// by the protocol packages; values only need to be unique within one
// simulated machine, so each protocol gets a disjoint range.
type MsgKind uint16

// Protocol message kind ranges.
const (
	KindMESIBase     MsgKind = 0x100
	KindVIPSBase     MsgKind = 0x200
	KindCallbackBase MsgKind = 0x300
)

// Message is a unit of transfer on the on-chip network.
type Message struct {
	Src, Dst NodeID
	Kind     MsgKind
	Class    MsgClass

	// Handle is the message's entry in the event kernel's message
	// table (0 until the message is first scheduled). Events carry the
	// handle instead of the pointer, so it must survive refills: pooled
	// messages are recycled and refilled with the handle kept (MsgPool,
	// Mesh.NewMessage), never by assigning a fresh Message over them.
	// It is allocator bookkeeping and not folded into digests.
	Handle uint32

	Addr Addr

	// Core is the original requester when the message is part of a
	// multi-hop transaction (e.g. a forwarded request or an ack).
	Core NodeID

	// Value carries a data word, an ack count, or other small payload.
	Value uint64

	// LineData and Mask carry a partial line for write-through messages
	// (the self-downgrade protocols update the LLC at word granularity).
	LineData Line
	Mask     [WordsPerLine]bool

	// Words is the payload word count for ClassWordData messages; it
	// refines the flit size (two 8-byte words per 16-byte flit). Zero
	// means one word.
	Words int

	// Stale marks a callback response produced by a directory eviction
	// rather than a write (Section 2.3.1).
	Stale bool

	// Req carries the originating request for racy-op transactions so
	// the LLC can interpret RMW semantics without extra lookups.
	Req *Request

	// Seq is Req.Seq as of the request's send: the tag that lets the
	// requesting L1 match a response to the operation it answers. It is
	// stamped when the message is built because the core reuses its
	// Request, so reading Req.Seq later would see the core's newest
	// operation. Like Req, it is a routing tag and not folded into
	// digests.
	Seq uint64
}

// Flits returns the message size in flits.
//
//cbsim:hotpath
func (m *Message) Flits() int {
	if m.Class == ClassWordData && m.Words > 1 {
		return 1 + (m.Words+1)/2
	}
	return m.Class.Flits()
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d->%d kind=%#x %s addr=%s}", m.Src, m.Dst, uint16(m.Kind), m.Class, m.Addr)
}

// MsgPool is a free list of Messages. Each simulated machine is driven by
// a single goroutine, so the pool is deliberately unsynchronized (unlike
// sync.Pool) and deterministic: steady-state message traffic performs no
// heap allocations. The zero value is ready to use.
type MsgPool struct {
	free []*Message
}

// Get returns a zeroed message (but for its kernel handle), reusing a
// freed one when available.
//
//cbsim:hotpath
func (p *MsgPool) Get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	//cbvet:alloc-ok pool-growth path; steady state reuses freed messages
	return &Message{}
}

// Put returns msg to the pool, zeroing all but its kernel handle. The
// caller must not retain msg afterwards: the next Get may hand it out
// again.
//
//cbsim:hotpath
func (p *MsgPool) Put(msg *Message) {
	*msg = Message{Handle: msg.Handle}
	p.free = append(p.free, msg)
}

// Len reports the number of pooled messages (tests).
func (p *MsgPool) Len() int { return len(p.free) }

// Enqueue appends msg to the FIFO queue q, taking a backing from free
// when q has none, and returns the queue and the free list. Controllers
// keep a queue per busy line; with Dequeue recycling emptied backings,
// steady-state queueing allocates nothing.
//
//cbsim:hotpath
func Enqueue(q []*Message, free [][]*Message, msg *Message) ([]*Message, [][]*Message) {
	if q == nil {
		if n := len(free); n > 0 {
			q = free[n-1]
			free[n-1] = nil
			free = free[:n-1]
		}
	}
	return append(q, msg), free
}

// Dequeue removes the head of the non-empty FIFO queue q, shifting the
// rest down so the backing keeps its capacity. It returns the head, the
// remaining queue (nil once empty) and the free list, to which an
// emptied backing goes.
//
//cbsim:hotpath
func Dequeue(q []*Message, free [][]*Message) (head *Message, rest []*Message, _ [][]*Message) {
	head = q[0]
	n := copy(q, q[1:])
	q[n] = nil
	if n == 0 {
		return head, nil, append(free, q[:0])
	}
	return head, q[:n], free
}
