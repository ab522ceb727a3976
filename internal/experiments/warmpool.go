package experiments

import (
	"runtime"
	"sync"

	"repro/internal/machine"
	"repro/internal/synclib"
)

// Machine construction is the shared prefix of every sweep cell: building
// a 64-core machine allocates about 1.3 MB of cache set headers, kernel
// wheel, directories and queues before the first event fires (cache
// lines are backed only as a cell touches them), and a Figure-21 sweep
// builds 19x7 of them. The warm pool simulates that prefix once per
// configuration: the first cell for a config builds the machine and
// captures its zero-state snapshot (machine.Snapshot of the freshly
// built, trivially quiescent machine); every later cell forks from the
// pool by restoring that snapshot, which clears only the cache sets the
// previous cell touched, instead of reallocating the world. Restore reconstructs the exact fresh-machine state (identity
// pinned by TestWarmStartSweepIdentity and the machine-level snapshot
// tests), so warm and cold sweeps are byte-identical.

// warmMachine pairs a pooled machine with the zero-state snapshot that
// rewinds it.
type warmMachine struct {
	m    *machine.Machine
	zero *machine.Snapshot
}

// warmPool holds idle machines by configuration. machine.Config is
// comparable; specs referenced by pointer (Chaos) key by identity, which
// only costs reuse across options structs, never correctness.
var warmPool = struct {
	sync.Mutex
	byCfg map[machine.Config][]*warmMachine
}{byCfg: make(map[machine.Config][]*warmMachine)}

// warmPoolCap bounds the idle machines kept per configuration: one per
// worker is the most a sweep can use at once.
var warmPoolCap = runtime.GOMAXPROCS(0)

// acquireWarm returns a machine in exact fresh-built state for cfg:
// a pooled machine rewound to its zero snapshot, or a newly built one.
func acquireWarm(cfg machine.Config) (*warmMachine, error) {
	warmPool.Lock()
	list := warmPool.byCfg[cfg]
	var w *warmMachine
	if n := len(list); n > 0 {
		w, warmPool.byCfg[cfg] = list[n-1], list[:n-1]
	}
	warmPool.Unlock()
	if w != nil {
		if err := w.m.Restore(w.zero); err != nil {
			return nil, err
		}
		return w, nil
	}
	m := machine.New(cfg, synclib.IsPrivate)
	zero, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return &warmMachine{m: m, zero: zero}, nil
}

// releaseWarm returns a machine to the pool. The machine may be in any
// state — finished, deadlocked, or canceled mid-run — because acquireWarm
// rewinds it before reuse.
func releaseWarm(cfg machine.Config, w *warmMachine) {
	warmPool.Lock()
	defer warmPool.Unlock()
	if len(warmPool.byCfg[cfg]) < warmPoolCap {
		warmPool.byCfg[cfg] = append(warmPool.byCfg[cfg], w)
	}
}
