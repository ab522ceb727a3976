package mesi

import (
	"testing"

	"repro/internal/memtypes"
)

// monitoredSpin sets up a reader whose copy of the flag is resident, arms
// the monitor via an OpReadCB, and checks it halts without polling.
func TestMonitorHaltsUntilInvalidation(t *testing.T) {
	r := newRig(t, 4)
	r.tiles[1].L1.monitorEnabled = true
	flag := memtypes.Addr(0x100)

	// Reader caches the flag (value 0).
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: flag})
	accessesBefore := r.tiles[1].L1.Stats().Accesses

	// Arm: an OpReadCB on a resident line halts.
	var got *memtypes.Response
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: flag}, func(rp memtypes.Response) {
		got = &rp
	})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("monitored read completed without a write")
	}
	ms := r.tiles[1].L1.monStats
	if ms.Arms != 1 {
		t.Fatalf("arms = %d, want 1", ms.Arms)
	}
	// The halted core performs no further L1 accesses (that is the
	// power argument for MWAIT — and for callbacks).
	if r.tiles[1].L1.Stats().Accesses != accessesBefore+1 {
		t.Fatalf("halted core kept accessing the L1: %d", r.tiles[1].L1.Stats().Accesses)
	}

	// The writer's store invalidates the monitored line and wakes the
	// reader with the new value.
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: flag, Value: 5})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("monitored read not woken by invalidation")
	}
	if got.Value != 5 {
		t.Fatalf("woken value = %d, want 5", got.Value)
	}
	if r.tiles[1].L1.monStats.Wakeups != 1 {
		t.Fatal("wakeup not counted")
	}
}

// TestMonitorMissObservesCurrentValue: an OpReadCB that misses cannot
// have seen the value before, so it completes with a fresh fill — the
// monitor has no Full/Empty concept, so the guard/fill path is what
// prevents lost wake-ups.
func TestMonitorMissObservesCurrentValue(t *testing.T) {
	r := newRig(t, 4)
	r.tiles[1].L1.monitorEnabled = true
	flag := memtypes.Addr(0x200)
	r.access(t, 0, &memtypes.Request{Kind: memtypes.OpWrite, Addr: flag, Value: 3})
	resp := r.access(t, 1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: flag})
	if resp.Value != 3 {
		t.Fatalf("fresh monitored read = %d, want 3", resp.Value)
	}
	if r.tiles[1].L1.monStats.Arms != 0 {
		t.Fatal("miss should not arm the monitor")
	}
}

// TestMonitorWokenByOwnerTransfer: a FwdGetX (writer steals an owned
// line) must also wake the monitor.
func TestMonitorWokenByOwnerTransfer(t *testing.T) {
	r := newRig(t, 4)
	r.tiles[1].L1.monitorEnabled = true
	flag := memtypes.Addr(0x300)
	// Reader holds the line in E (sole reader -> exclusive grant).
	r.access(t, 1, &memtypes.Request{Kind: memtypes.OpRead, Addr: flag})
	var got *memtypes.Response
	r.start(1, &memtypes.Request{Kind: memtypes.OpReadCB, Addr: flag}, func(rp memtypes.Response) {
		got = &rp
	})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("should halt on the E copy")
	}
	// Writer's GetX forwards to the owner (core 1), invalidating it.
	r.access(t, 2, &memtypes.Request{Kind: memtypes.OpWrite, Addr: flag, Value: 9})
	if err := r.k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Value != 9 {
		t.Fatalf("monitor not woken by owner transfer: %+v", got)
	}
}
