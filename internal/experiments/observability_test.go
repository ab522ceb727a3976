package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStatsByteIdenticalWithTracing pins the pay-for-what-you-use
// contract of the observability layer: attaching a Chrome trace writer
// and a metrics collector must not change a single simulated outcome.
// The same cell is run bare and fully instrumented, and the Stats JSON
// (the exact payload the daemon caches by content hash) must be
// byte-identical. Cycle accounting subscribes to the same event stream,
// so it is attached beside the collector in both orders too: apart from
// the cycle stack it adds, Stats stay byte-identical, and the stack and
// the rendered trace do not depend on the order.
func TestStatsByteIdenticalWithTracing(t *testing.T) {
	p, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := SetupByName("CB-All")

	run := func(o Options) []byte {
		r, err := RunBenchmark(p, s, workload.StyleScalable, o)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(r.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	bare := run(Options{Cores: 16})

	var chrome bytes.Buffer
	reg := obs.NewRegistry()
	m := obs.NewSimMetrics(reg)
	cw := trace.NewChromeWriter(&chrome)
	traced := run(Options{Cores: 16, Trace: cw, Metrics: m})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(bare, traced) {
		t.Fatalf("Stats changed when tracing was attached:\nbare:   %s\ntraced: %s", bare, traced)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	if m.Runs.Value() != 1 {
		t.Fatalf("Runs = %d, want 1", m.Runs.Value())
	}
	if m.CBWakeLatency.Count() == 0 {
		t.Error("no callback wake latencies observed under CB-All")
	}
	if m.Sync[2].Count()+m.Sync[1].Count() == 0 { // release/acquire
		t.Error("no sync episodes observed")
	}
	if m.LinkUtil.Count() == 0 {
		t.Error("no link utilization samples observed")
	}

	o := Options{Cores: 16}.fill()
	g := workload.Generate(p, o.Cores, workload.StyleScalable, s.Flavor())
	var stacks [][]byte
	for _, cyclesFirst := range []bool{true, false} {
		mc := buildMachine(s, o)
		var buf bytes.Buffer
		cw := trace.NewChromeWriter(&buf)
		collector := trace.NewMetricsCollector(obs.NewSimMetrics(obs.NewRegistry()))
		acc := cycles.NewAccumulator(o.Cores)
		if cyclesFirst {
			mc.AttachCycles(acc)
			mc.AttachTrace(collector)
			mc.AttachTrace(cw)
		} else {
			mc.AttachTrace(cw)
			mc.AttachTrace(collector)
			mc.AttachCycles(acc)
		}
		for a, v := range g.Layout.Init {
			mc.Store.StoreWord(a, v)
		}
		for tid, prog := range g.Programs {
			mc.Load(tid, prog, nil)
		}
		if err := mc.Run(o.Limit); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		st := mc.Stats()
		if st.CycleStack == nil {
			t.Fatal("no cycle stack with accounting attached")
		}
		stack, err := json.Marshal(st.CycleStack)
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, stack)
		st.CycleStack = nil
		js, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bare, js) {
			t.Errorf("cycles first %v: Stats changed with accounting and a collector attached:\nbare:     %s\nobserved: %s", cyclesFirst, bare, js)
		}
		if !bytes.Equal(chrome.Bytes(), buf.Bytes()) {
			t.Errorf("cycles first %v: rendered trace differs from the run without accounting", cyclesFirst)
		}
	}
	if !bytes.Equal(stacks[0], stacks[1]) {
		t.Errorf("cycle stack depends on attach order:\n%s\n%s", stacks[0], stacks[1])
	}
}
