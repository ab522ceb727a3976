package machine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/synclib"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tasMachine builds a small deterministic callback run: two cores
// contending on a Test&Set lock (CB-One encodings) around a shared
// counter — enough to exercise sync phases, critical sections, callback
// block/wake episodes, and network traffic in one trace.
func tasMachine(t *testing.T) (*Machine, func() uint64) {
	t.Helper()
	cfg := Default(ProtocolCallback)
	cfg.Cores = 4
	m := New(cfg, synclib.IsPrivate)
	lay := synclib.NewLayout()
	lock := synclib.NewTASLock(lay)
	counter := lay.SharedLine()
	const iters = 2
	for tid := 0; tid < 2; tid++ {
		b := isa.NewBuilder()
		loop := b.NewLabel()
		lock.EmitInit(b, synclib.FlavorCBOne, tid)
		b.Imm(isa.R1, iters)
		b.Bind(loop)
		lock.EmitAcquire(b, synclib.FlavorCBOne, tid)
		b.Imm(isa.R4, uint64(counter))
		b.Ld(isa.R5, isa.R4, 0)
		b.Addi(isa.R5, isa.R5, 1)
		b.St(isa.R4, 0, isa.R5)
		lock.EmitRelease(b, synclib.FlavorCBOne, tid)
		b.Addi(isa.R1, isa.R1, ^uint64(0))
		b.Bnez(isa.R1, loop)
		b.Done()
		m.Load(tid, b.MustBuild(), nil)
	}
	for a, v := range lay.Init {
		m.Store.StoreWord(a, v)
	}
	return m, func() uint64 { return m.Store.Load(counter) }
}

func TestChromeTraceGolden(t *testing.T) {
	m, counter := tasMachine(t)
	var buf bytes.Buffer
	cw := trace.NewChromeWriter(&buf)
	ring := trace.NewRing(4096)
	m.AttachTrace(cw)
	m.AttachTrace(ring) // multi-sink: both must see the full stream
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := counter(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("Chrome trace is not valid JSON: %.200s", out)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	begins, ends, names := 0, 0, map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "b":
			names[e.Name+"/open"]++
		case "e":
			names[e.Name+"/close"]++
		}
		names[e.Name]++
		if e.Pid < 0 || e.Pid >= 4 {
			t.Fatalf("pid %d out of range for a 4-core machine", e.Pid)
		}
	}
	if begins != ends {
		t.Fatalf("unbalanced duration events: %d B vs %d E", begins, ends)
	}
	for _, want := range []string{"acquire", "release", "critical", "cb.wait", "msg", "process_name", "thread_name"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q events; saw %v", want, names)
		}
	}
	if names["cb.wait/open"] != names["cb.wait/close"] {
		t.Fatalf("unbalanced async cb.wait: %d open vs %d close",
			names["cb.wait/open"], names["cb.wait/close"])
	}
	// The ring must have seen the same stream (fan-out check).
	if ring.Len() == 0 {
		t.Fatal("second sink saw no events")
	}

	golden := filepath.Join("testdata", "chrome_tas.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("Chrome trace diverged from golden file (deterministic run changed?); regenerate with -update if intentional.\ngot %d bytes, want %d", len(out), len(want))
	}
}

func TestObserveMetricsLinkUtil(t *testing.T) {
	// End-of-run observation: every physical link contributes one
	// utilization sample (a 2x2 mesh has 8 directional links).
	m, _ := tasMachine(t)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	sm := obs.NewSimMetrics(obs.NewRegistry())
	m.ObserveMetrics(sm)
	if got := sm.LinkUtil.Count(); got != 8 {
		t.Fatalf("link-utilization samples = %d, want 8", got)
	}
	if sm.Runs.Value() != 1 {
		t.Fatalf("Runs = %d, want 1", sm.Runs.Value())
	}
}
