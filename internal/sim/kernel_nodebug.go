//go:build !cbsimdebug

package sim

import "repro/internal/memtypes"

// checkActor and checkHandle are the -tags cbsimdebug scheduling
// assertions (see kernel_debug.go); release builds compile them away.
//
//cbsim:hotpath
func (k *Kernel) checkActor(ActorID) {}

//cbsim:hotpath
func (k *Kernel) checkHandle(uint32, *memtypes.Message) {}
