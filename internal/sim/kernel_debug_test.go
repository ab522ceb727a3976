//go:build cbsimdebug

package sim

import (
	"strings"
	"testing"

	"repro/internal/memtypes"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, want) {
			t.Fatalf("panic = %v, want one containing %q", r, want)
		}
	}()
	f()
}

// A message whose handle resolves to another message — here a copy that
// kept the original's handle — fails at the Schedule call instead of
// delivering the original when the event fires.
func TestDebugHandleMustResolveToScheduledMessage(t *testing.T) {
	k := New()
	a := k.Register(&recordingActor{})
	orig := &memtypes.Message{}
	k.Schedule(1, a, orig, 0)
	clone := *orig
	mustPanic(t, "does not resolve", func() { k.Schedule(1, a, &clone, 0) })

	// A handle issued by another kernel does not resolve here either.
	other := New()
	other.Schedule(1, other.Register(&recordingActor{}), &memtypes.Message{}, 0)
	foreign := &memtypes.Message{}
	other.Schedule(1, 0, foreign, 0)
	mustPanic(t, "does not resolve", func() { k.Schedule(1, a, foreign, 0) })
}

func TestDebugUnregisteredActorPanics(t *testing.T) {
	k := New()
	k.Register(&recordingActor{})
	mustPanic(t, "not registered", func() { k.Schedule(1, 1, nil, 0) })
}
