package mesi

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/memtypes"
	"repro/internal/trace"
)

// This file implements the quiesce/monitor extension discussed in the
// paper's related work (Section 4.1): "quiesce instructions [9] found in
// Intel, Alpha, and other processors, use cache coherence to implement
// functionality reminiscent of a callback (specifically the
// callback-all) mechanism" — an event monitor next to the core, armed by
// the spinning load, that halts execution until an invalidation for the
// monitored line arrives at the L1 (MONITOR/MWAIT).
//
// The fundamental difference the paper points out is reproduced here:
// the monitor has no concept of a value already present for consumption
// (no Full/Empty bit), so a write that happened before arming is not
// detected. Correct monitor-based spinning therefore re-checks the value
// after arming and before halting — which this implementation does — and
// single-wake (callback-one) semantics cannot be expressed at all: every
// invalidation wakes the monitor.

// MonitorStats counts monitor activity.
type MonitorStats struct {
	Arms    uint64 // monitored loads that halted the core
	Wakeups uint64 // invalidation-triggered wakeups
	Misfire uint64 // wakeups where the value still blocked the spin
}

// monitorState tracks one core's armed monitor.
type monitorState struct {
	armed bool
	addr  memtypes.Addr // line being monitored
	// req and done are the halted load, re-executed by the evResume
	// event after a wakeup. They outlive armed by that one event.
	req  *memtypes.Request
	done memtypes.Completer
}

// accessMonitored serves an OpReadCB under the monitor model: load the
// line (normal MESI fill if needed), return the value — but if the line
// is already resident and thus cannot have changed since the caller's
// previous read, halt until an invalidation arrives and then re-read.
//
// The guard ld_through of the spin idiom maps to a plain load, so the
// "value already present" case completes there; only the repeated
// blocking reads halt, exactly like an MWAIT-based spin loop.
func (l *L1) accessMonitored(req *memtypes.Request, done memtypes.Completer) {
	if l.monitor.armed {
		panic(fmt.Sprintf("mesi: core %d armed a second monitor", l.id))
	}
	line := l.arr.Lookup(req.Addr)
	l.stats.Accesses++
	if line == nil {
		// Miss: a fresh fill observes the current value; treat as an
		// ordinary load (the fill is the "new value" notification).
		l.stats.Misses++
		l.pending = l1Pending{req: req, done: done}
		l.request(MsgGetS, req)
		return
	}
	// Hit: the cached copy cannot have a newer value than the one the
	// spin already rejected. Arm the monitor and halt until the line is
	// invalidated (the writer's GetX), then re-read.
	l.stats.Hits++
	l.monStats.Arms++
	if l.obs != nil {
		// mon.arm also opens the core's blocked leg: the halted core is
		// blocked exactly like a parked callback.
		l.obs(trace.Event{Kind: trace.KindMonArm, Cycle: l.k.Now(), Node: l.id, Addr: req.Addr.Line()})
	}
	l.monitor = monitorState{armed: true, addr: req.Addr.Line(), req: req, done: done}
}

// resumeMonitor re-executes a woken monitor's load as an ordinary load:
// it will miss (the line was just invalidated) and fetch the new value.
func (l *L1) resumeMonitor() {
	req, done := l.monitor.req, l.monitor.done
	l.monitor = monitorState{}
	l.monStats.Wakeups++
	l.pending = l1Pending{req: req, done: done}
	l.stats.Accesses++
	l.stats.Misses++
	l.request(MsgGetS, req)
}

// monitorInvalidated fires when an invalidation (or forward) kills the
// monitored line.
func (l *L1) monitorInvalidated(addr memtypes.Addr) {
	if !l.monitor.armed || l.monitor.addr != addr.Line() {
		return
	}
	l.monitor.armed = false
	if l.obs != nil {
		l.obs(trace.Event{Kind: trace.KindMonWake, Cycle: l.k.Now(), Node: l.id, Addr: addr.Line()})
	}
	// The wakeup costs one cycle of monitor logic before the reload.
	l.k.Schedule(mem.DefaultL1Latency, l.self, nil, evResume)
}
