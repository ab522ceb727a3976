package machine

import "fmt"

// This file is the machine half of the replay subsystem's execution
// primitive: advancing a machine to an exact cycle boundary and pausing
// there without perturbing the event sequence. A run chopped into
// boundary segments fires the identical events — and accumulates
// byte-identical Stats — as one uninterrupted Run; the boundaries are
// merely the places where checkpoints, state digests, and trace sinks
// may be attached or compared. Pinned by TestRunToCycleByteIdentity.

// RunToCycle advances the simulation to the exact boundary of cycle
// target: every event scheduled before target fires, none at or after
// it does. It returns done=true when all loaded cores finished —
// stopping at the same point Run would, possibly before the boundary.
// A drained event queue with unfinished cores is a deadlock and fails
// with a diagnosis, exactly like an exhausted Run limit.
//
// Unlike Run, the clock is not bumped to the boundary on pause: Now()
// reports the last fired event's cycle. Repeated calls with increasing
// targets chunk a run into windows; Stats may be read at any pause.
func (m *Machine) RunToCycle(target uint64) (done bool, err error) {
	if m.loaded == 0 {
		return false, fmt.Errorf("machine: no programs loaded")
	}
	finished := func() bool { return m.finished == m.loaded }
	if !m.K.RunToBoundary(target, finished) {
		return true, nil // cond stopped it: every core is done
	}
	if finished() {
		return true, nil
	}
	if m.K.Pending() == 0 {
		return false, fmt.Errorf("machine: %d/%d cores finished and event queue drained at cycle %d (deadlock)\n%s",
			m.finished, m.loaded, m.K.Now(), m.Diagnose())
	}
	return false, nil
}

// NextEventCycle reports the cycle of the earliest pending event, or
// false when the queue is empty. The bisection fine scan uses it to jump
// both machines to their common next boundary instead of probing every
// empty cycle.
func (m *Machine) NextEventCycle() (uint64, bool) {
	return m.K.NextEventTime()
}
