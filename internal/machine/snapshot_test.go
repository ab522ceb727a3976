package machine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memtypes"
	"repro/internal/trace"
)

// loadSmoke loads the two-core flag hand-off workload used by the smoke
// tests: core 0 computes then writes through a flag, core 1 spins on it.
func loadSmoke(m *Machine) {
	flag := memtypes.Addr(0x1000)
	wb := isa.NewBuilder()
	wb.Compute(100)
	wb.Imm(isa.R1, uint64(flag))
	wb.Imm(isa.R2, 1)
	wb.StThrough(isa.R1, 0, isa.R2)
	wb.Done()
	m.Load(0, wb.MustBuild(), nil)

	rb := isa.NewBuilder()
	spin := rb.NewLabel()
	rb.Imm(isa.R1, uint64(flag))
	rb.SyncBegin(isa.SyncWait)
	rb.Bind(spin)
	rb.LdThrough(isa.R2, isa.R1, 0)
	rb.Beqz(isa.R2, spin)
	rb.SyncEnd(isa.SyncWait)
	rb.Done()
	m.Load(1, rb.MustBuild(), nil)
}

func runSmoke(t *testing.T, m *Machine) Stats {
	t.Helper()
	loadSmoke(m)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Quiesce(100_000); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

// A machine restored from a zero-state snapshot (captured after New,
// before Load) re-runs a workload with byte-identical Stats — the
// warm-start soundness contract.
func TestSnapshotWarmStartIdentity(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback, ProtocolQuiesce, ProtocolQueueLock} {
		cfg := Default(p)
		cfg.Cores = 4
		m := New(cfg, nil)
		zero, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%v: zero-state snapshot: %v", p, err)
		}
		cold := runSmoke(t, m)
		if err := m.Restore(zero); err != nil {
			t.Fatalf("%v: restore: %v", p, err)
		}
		warm := runSmoke(t, m)
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%v: warm-start stats differ from cold run:\ncold %+v\nwarm %+v", p, cold, warm)
		}
	}
}

// A snapshot taken at completion restores into a FRESH machine of the
// same configuration with identical Stats.
func TestSnapshotRestoreIdentity(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	want := runSmoke(t, m)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	m2 := New(cfg, nil)
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := m2.Stats(); !reflect.DeepEqual(want, got) {
		t.Fatalf("restored stats differ:\nwant %+v\ngot  %+v", want, got)
	}
	if m2.K.Now() != m.K.Now() {
		t.Fatalf("restored clock %d, want %d", m2.K.Now(), m.K.Now())
	}
}

// Snapshot must refuse a machine stopped mid-run: transient protocol
// state (pending events, in-flight messages) cannot be captured.
func TestSnapshotRefusesNonQuiescent(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	loadSmoke(m)
	if err := m.Run(20); err == nil {
		t.Fatal("Run(20) should hit the limit")
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot of a mid-run machine must fail")
	}
}

// Restore must refuse a snapshot from a differently configured machine.
func TestRestoreConfigMismatch(t *testing.T) {
	cb := Default(ProtocolCallback)
	cb.Cores = 4
	m := New(cb, nil)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bo := Default(ProtocolBackoff)
	bo.Cores = 4
	m2 := New(bo, nil)
	if err := m2.Restore(snap); err == nil || !strings.Contains(err.Error(), "config mismatch") {
		t.Fatalf("restore across configs: err = %v, want config mismatch", err)
	}
}

// The heap-only reference kernel and the two-tier wheel kernel must
// produce byte-identical machine Stats.
func TestHeapOnlyKernelIdenticalStats(t *testing.T) {
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback} {
		cfg := Default(p)
		cfg.Cores = 4
		wheel := runSmoke(t, New(cfg, nil))
		cfg.HeapOnlyKernel = true
		heap := runSmoke(t, New(cfg, nil))
		// The configs differ only in the kernel flag, which Stats must
		// not observe.
		if !reflect.DeepEqual(wheel, heap) {
			t.Fatalf("%v: wheel and heap kernels diverge:\nwheel %+v\nheap  %+v", p, wheel, heap)
		}
	}
}

// Restoring a traced machine detaches its observers: the next run emits
// nothing into the stale sink, and a fresh AttachTrace works.
func TestRestoreDetachesTrace(t *testing.T) {
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, nil)
	zero, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	m.AttachTrace(traceCounter{&stale})
	_ = runSmoke(t, m)
	if stale == 0 {
		t.Fatal("attached sink saw no events")
	}
	if err := m.Restore(zero); err != nil {
		t.Fatal(err)
	}
	before := stale
	fresh := 0
	m.AttachTrace(traceCounter{&fresh})
	_ = runSmoke(t, m)
	if stale != before {
		t.Fatalf("stale sink received %d events after restore", stale-before)
	}
	if fresh == 0 {
		t.Fatal("fresh sink attached after restore saw no events")
	}
}

type traceCounter struct{ n *int }

func (c traceCounter) Emit(trace.Event) { *c.n++ }
