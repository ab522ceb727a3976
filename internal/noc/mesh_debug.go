//go:build cbsimdebug

package noc

import (
	"fmt"

	"repro/internal/memtypes"
)

// Poison values written into freed messages. Any handler that reads a
// message after Free sees an impossible kind and a recognizable payload
// instead of plausible-looking zeroes.
const (
	poisonKind  = memtypes.MsgKind(0xDEAD)
	poisonValue = uint64(0xDEADBEEFDEADBEEF)
)

// meshDebug is the -tags cbsimdebug double-free guard. Freed messages
// are poisoned and quarantined (set + LIFO slice) instead of going back
// to the pool immediately; a second Free of a quarantined message panics
// at the faulty call site. Reuse order stays deterministic: quarantine
// is drained LIFO before the pool allocates.
type meshDebug struct {
	freed      map[*memtypes.Message]bool
	quarantine []*memtypes.Message
}

func (m *Mesh) getMessage() *memtypes.Message {
	if n := len(m.dbg.quarantine); n > 0 {
		msg := m.dbg.quarantine[n-1]
		m.dbg.quarantine = m.dbg.quarantine[:n-1]
		delete(m.dbg.freed, msg)
		*msg = memtypes.Message{Handle: msg.Handle}
		return msg
	}
	return m.pool.Get()
}

func (m *Mesh) putMessage(msg *memtypes.Message) {
	if m.dbg.freed[msg] {
		panic(fmt.Sprintf("noc: double free of message %p (kind %#x, value %#x): it was already returned to the mesh", msg, uint16(msg.Kind), msg.Value))
	}
	if m.dbg.freed == nil {
		m.dbg.freed = make(map[*memtypes.Message]bool)
	}
	m.dbg.freed[msg] = true
	*msg = memtypes.Message{Kind: poisonKind, Value: poisonValue, Handle: msg.Handle}
	m.dbg.quarantine = append(m.dbg.quarantine, msg)
}
