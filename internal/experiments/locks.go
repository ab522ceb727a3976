package experiments

import (
	"math/rand"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// ExtensionLocks compares all five lock algorithms (the paper's T&S,
// T&T&S, CLH plus the ticket and MCS extensions) on the contended-lock
// microbenchmark across the standard setups, reporting mean acquire
// latency. It generalizes the lock half of Figure 20 and tests whether
// the paper's "callbacks make naive synchronization as good as scalable"
// claim extends to other algorithms.
func ExtensionLocks(o Options) (lat, llc *metrics.Table, err error) {
	o = o.fill()
	// The standard seven setups plus the VIPS-M blocking-bit queue lock
	// the paper contrasts against.
	setups := append(StandardSetups(),
		Setup{Name: "QueueLock", Protocol: machine.ProtocolQueueLock, BackoffLimit: 10})
	cols := make([]string, len(setups))
	for i, s := range setups {
		cols[i] = s.Name
	}
	lat = metrics.NewTable("Lock extension study (mean acquire latency, cycles)", cols...)
	llc = metrics.NewTable("Lock extension study (sync LLC accesses)", cols...)

	locks := []struct {
		name string
		mk   func(*synclib.Layout, int) synclib.Lock
	}{
		{"T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTASLock(l) }},
		{"T&T&S", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTTASLock(l) }},
		{"Ticket", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewTicketLock(l) }},
		{"CLH", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewCLHLock(l, n) }},
		{"MCS", func(l *synclib.Layout, n int) synclib.Lock { return synclib.NewMCSLock(l, n) }},
	}
	stats := make([]machine.Stats, len(locks)*len(setups))
	err = o.forEach(len(stats), func(i int) error {
		lk, s := locks[i/len(setups)], setups[i%len(setups)]
		o.Logf("run lock-ext %-8s %-13s", lk.name, s.Name)
		st, err := runLockMicro(lk.mk, s, o)
		if err != nil {
			return err
		}
		stats[i] = st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for li, lk := range locks {
		latRow := make([]float64, len(setups))
		llcRow := make([]float64, len(setups))
		for i := range setups {
			st := stats[li*len(setups)+i]
			latRow[i] = st.SyncLatency(isa.SyncAcquire)
			llcRow[i] = float64(st.LLCSyncByKind[isa.SyncAcquire])
		}
		lat.AddRow(lk.name, latRow...)
		llc.AddRow(lk.name, llcRow...)
	}
	return lat, llc, nil
}

// runLockMicro runs the contended lock microbenchmark for one algorithm
// under one setup.
func runLockMicro(mk func(*synclib.Layout, int) synclib.Lock, s Setup, o Options) (machine.Stats, error) {
	const iters = 8
	lay := synclib.NewLayout()
	lock := mk(lay, o.Cores)
	counter := lay.SharedLine()
	f := s.Flavor()
	g := &workload.Generated{Layout: lay, Flavor: f}
	for tid := 0; tid < o.Cores; tid++ {
		rng := rand.New(rand.NewSource(int64(tid) + 42))
		b := isa.NewBuilder()
		loop := b.NewLabel()
		lock.EmitInit(b, f, tid)
		b.Imm(isa.R1, iters)
		b.Bind(loop)
		b.Compute(uint64(2000 + rng.Intn(2000)))
		lock.EmitAcquire(b, f, tid)
		b.Imm(isa.R2, uint64(counter))
		b.Ld(isa.R3, isa.R2, 0)
		b.Addi(isa.R3, isa.R3, 1)
		b.St(isa.R2, 0, isa.R3)
		b.Compute(100)
		lock.EmitRelease(b, f, tid)
		b.Addi(isa.R1, isa.R1, ^uint64(0))
		b.Bnez(isa.R1, loop)
		b.Done()
		g.Programs = append(g.Programs, b.MustBuild())
	}
	res, err := runGenerated(g, s, o)
	if err != nil {
		return machine.Stats{}, err
	}
	return res.Stats, nil
}
