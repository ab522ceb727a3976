package machine

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A metrics collector alone must not make the memory path allocate: the
// mesh emits typed events, and nothing formats a message unless a sink
// renders text. Each 16-core cell runs bare and with only a collector
// attached; the runs are simulated identically, so the difference in
// mallocs is what observing cost, counted per NoC message. (A cold cell
// also allocates while its event heap and controller maps grow; that
// part is the same in both runs.)
func TestMetricsCollectorAllocFreePerMessage(t *testing.T) {
	run := func(p Protocol, sm *obs.SimMetrics) (mallocs, msgs uint64) {
		t.Helper()
		prof, err := workload.ByName("radiosity")
		if err != nil {
			t.Fatal(err)
		}
		const cores = 16
		g := workload.Generate(prof, cores, workload.StyleScalable, goldenFlavor(p))
		cfg := Default(p)
		cfg.Cores = cores
		m := New(cfg, synclib.IsPrivate)
		if sm != nil {
			m.AttachTrace(trace.NewMetricsCollector(sm))
		}
		for a, v := range g.Layout.Init {
			m.Store.StoreWord(a, v)
		}
		for tid, prog := range g.Programs {
			m.Load(tid, prog, nil)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := m.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, m.Stats().Net.Messages
	}
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback} {
		t.Run(p.String(), func(t *testing.T) {
			bare, msgs := run(p, nil)
			sm := obs.NewSimMetrics(obs.NewRegistry())
			observed, _ := run(p, sm)
			if msgs == 0 || sm.SpinWait.Count()+sm.CBWakeLatency.Count()+sm.Sync[2].Count() == 0 {
				t.Fatalf("cell sent %d messages and fed no histogram", msgs)
			}
			per := (float64(observed) - float64(bare)) / float64(msgs)
			t.Logf("%d mallocs observed, %d bare, %d messages: %.4f per message", observed, bare, msgs, per)
			if per >= 0.01 {
				t.Fatalf("a metrics collector costs %.3f mallocs per NoC message, want < 0.01", per)
			}
		})
	}
}
