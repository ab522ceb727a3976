//go:build cbsimdebug

package noc

import (
	"strings"
	"testing"

	"repro/internal/memtypes"
	"repro/internal/sim"
)

func TestDebugDoubleFreePanics(t *testing.T) {
	k := sim.New()
	m := New(k, 2, 2, nil, false)
	msg := m.NewMessage(memtypes.Message{})
	m.Free(msg)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Free did not panic under cbsimdebug")
		}
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "double free") {
			t.Fatalf("panic = %v, want a double-free message", r)
		}
	}()
	m.Free(msg)
}

func TestDebugFreePoisonsMessage(t *testing.T) {
	k := sim.New()
	m := New(k, 2, 2, nil, false)
	msg := m.NewMessage(memtypes.Message{})
	msg.Kind = memtypes.KindMESIBase
	msg.Value = 7
	m.Free(msg)
	if msg.Kind != poisonKind || msg.Value != poisonValue {
		t.Fatalf("freed message not poisoned: kind=%#x value=%#x", uint16(msg.Kind), msg.Value)
	}
}

func TestDebugReuseReturnsZeroedMessage(t *testing.T) {
	k := sim.New()
	m := New(k, 2, 2, nil, false)
	msg := m.NewMessage(memtypes.Message{})
	m.Free(msg)
	got := m.NewMessage(memtypes.Message{})
	if got != msg {
		t.Fatalf("quarantine not drained LIFO: got %p, want %p", got, msg)
	}
	if *got != (memtypes.Message{}) {
		t.Fatalf("reused message not zeroed: %+v", got)
	}
	// A third Free of the reissued message is once again legal.
	m.Free(got)
}
