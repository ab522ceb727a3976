//go:build cbsimdebug

package sim

import (
	"fmt"

	"repro/internal/memtypes"
)

// checkActor panics when a names no registered actor, at the Schedule
// call that would otherwise fail only when the event fires.
func (k *Kernel) checkActor(a ActorID) {
	if int(a) >= len(k.actors) {
		panic(fmt.Sprintf("sim: actor %d is not registered (%d actors)", a, len(k.actors)))
	}
}

// checkHandle panics unless handle h resolves to msg: a handle copied
// from another message or carried over from another kernel would
// otherwise deliver the wrong message when the event fires.
func (k *Kernel) checkHandle(h uint32, msg *memtypes.Message) {
	if int(h) >= len(k.msgs) || k.msgs[h] != msg {
		panic(fmt.Sprintf("sim: message %p carries handle %d, which does not resolve to it", msg, h))
	}
}
