package machine

import (
	"testing"

	"repro/internal/synclib"
	"repro/internal/workload"
)

// Every message keeps its kernel handle across pool reuse and refills,
// so the kernel's message table never outgrows the mesh pool: at most
// one entry per message ever in flight at once. A refill that wiped the
// handle would re-enter the message on every send and grow the table
// with the traffic instead.
func TestMessageTableBoundedByPeakLive(t *testing.T) {
	prof, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	const cores = 16
	for _, p := range []Protocol{ProtocolMESI, ProtocolCallback} {
		g := workload.Generate(prof, cores, workload.StyleNaive, goldenFlavor(p))
		cfg := Default(p)
		cfg.Cores = cores
		m := New(cfg, synclib.IsPrivate)
		for a, v := range g.Layout.Init {
			m.Store.StoreWord(a, v)
		}
		for tid, prog := range g.Programs {
			m.Load(tid, prog, nil)
		}
		if err := m.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		handles, peak := m.K.MessageHandles(), m.Mesh.PeakLiveMessages()
		sent := m.Mesh.Stats().Messages
		t.Logf("%s: %d handles, peak %d live messages, %d sent", p, handles, peak, sent)
		if handles == 0 || uint64(peak) >= sent {
			t.Fatalf("%s: %d handles, peak %d live of %d sent: the cell must reuse pooled messages", p, handles, peak, sent)
		}
		if handles > peak {
			t.Fatalf("%s: message table holds %d entries, more than the %d messages ever live at once", p, handles, peak)
		}
	}
}
