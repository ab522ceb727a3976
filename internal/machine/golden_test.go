package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cycles"
	"repro/internal/synclib"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCell is one protocol x workload cell's pinned behaviour.
type goldenCell struct {
	// Stats is the SHA-256 of the run's Stats JSON with cycle
	// accounting on (so CycleStack is included).
	Stats string `json:"stats"`
	// MidDigest is Digest(ScopeFull) at the goldenMid boundary.
	MidDigest uint64 `json:"mid_digest"`
	// EndDigest is Digest(ScopeFull) after the run completed.
	EndDigest uint64 `json:"end_digest"`
	// Trace is the SHA-256 of the rendered trace-event stream.
	Trace string `json:"trace"`
}

// goldenMid is the mid-run RunToCycle boundary; every cell must still be
// running there.
const goldenMid = 20_000

// goldenWorkloads are the pinned workloads: a scalable-style barrier
// profile and a naive-style lock profile (T&T&S locks drive the
// QueueLock blocking bits and the Quiesce monitor).
var goldenWorkloads = []struct {
	bench string
	style workload.SyncStyle
}{
	{"radiosity", workload.StyleScalable},
	{"dedup", workload.StyleNaive},
}

// goldenFlavor maps a protocol to the encodings it runs, as the
// experiments' setups do.
func goldenFlavor(p Protocol) synclib.Flavor {
	switch p {
	case ProtocolMESI:
		return synclib.FlavorMESI
	case ProtocolCallback, ProtocolQuiesce:
		return synclib.FlavorCBAll
	}
	return synclib.FlavorBackoff
}

// hashSink folds every trace event into a running SHA-256.
type hashSink struct{ h hash.Hash }

func (s hashSink) Emit(e trace.Event) {
	fmt.Fprintf(s.h, "%d|%d|%s|%d|%d|%s\n", e.Cycle, e.Node, e.Kind, e.Addr, e.A, e.Note())
}

func runGoldenCell(t *testing.T, p Protocol, bench string, style workload.SyncStyle) goldenCell {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	const cores = 16
	g := workload.Generate(prof, cores, style, goldenFlavor(p))
	cfg := Default(p)
	cfg.Cores = cores
	m := New(cfg, synclib.IsPrivate)
	m.AttachCycles(cycles.NewAccumulator(cores))
	sink := hashSink{sha256.New()}
	m.AttachTrace(sink)
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	var c goldenCell
	done, err := m.RunToCycle(goldenMid)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("finished before the mid-run boundary %d", goldenMid)
	}
	c.MidDigest = m.Digest(ScopeFull)
	if err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	c.EndDigest = m.Digest(ScopeFull)
	js, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	c.Stats = hex.EncodeToString(sum[:])
	c.Trace = hex.EncodeToString(sink.h.Sum(nil))
	return c
}

// TestDigestGolden pins every protocol's behaviour on two 16-core
// workloads: Stats bytes, full-state digests mid-run and at the end, and
// the trace-event stream. A refactor that claims byte identity must pass
// it unchanged; regenerate with -update only for an intended change and
// list the changed cells.
func TestDigestGolden(t *testing.T) {
	got := map[string]goldenCell{}
	for _, p := range []Protocol{ProtocolMESI, ProtocolBackoff, ProtocolCallback, ProtocolQuiesce, ProtocolQueueLock} {
		for _, w := range goldenWorkloads {
			got[fmt.Sprintf("%s/%s-%s", p, w.bench, w.style)] = runGoldenCell(t, p, w.bench, w.style)
		}
	}
	path := filepath.Join("testdata", "digests.json")
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to regenerate): %v", err)
	}
	var want map[string]goldenCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: cell no longer run", name)
		} else if g != w {
			t.Errorf("%s diverged from golden:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: cell missing from golden (run with -update)", name)
		}
	}
}
