package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// chaosTestOptions runs the chaos tests on a 9-core (3x3) mesh. Both
// tests sweep the full chaosWorkloads set; the odd core count also
// covers micros that pair cores up.
func chaosTestOptions() Options {
	return Options{
		Cores:       9,
		Parallelism: 4,
		Logf:        func(string, ...any) {},
	}
}

func mustParse(t *testing.T, s string) *chaos.Spec {
	t.Helper()
	spec, err := chaos.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The core acceptance property: every kernel and litmus program
// terminates under injected faults and reproduces the fault-free
// outcome exactly.
func TestRunChaosMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is a multi-second sweep")
	}
	o := chaosTestOptions()
	ws := chaosWorkloads(o)
	entries := []ChaosEntry{
		{Name: "all", Spec: mustParse(t, "all")},
		{Name: "squeeze", Spec: mustParse(t, "squeeze,evict-storm=0.1")},
	}
	rep, err := runChaosWorkloads(o, ws, entries, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	want := len(ws) * len(entries)
	if len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	// The faults must actually fire somewhere: a matrix that injects
	// nothing proves nothing.
	var evictions, wakes, delays uint64
	for _, c := range rep.Cells {
		evictions += c.Faults.ForcedEvictions
		wakes += c.Faults.SpuriousWakes
		delays += c.Faults.NoCDelays
	}
	if evictions == 0 || wakes == 0 || delays == 0 {
		t.Fatalf("fault matrix never fired some site: evictions=%d spurious=%d delays=%d",
			evictions, wakes, delays)
	}
}

// Chaos runs replay bit-identically for a given (spec, seed).
func TestRunChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is a multi-second sweep")
	}
	o := chaosTestOptions()
	ws := chaosWorkloads(o)
	entries := []ChaosEntry{{Name: "all", Spec: mustParse(t, "all")}}
	run := func() string {
		rep, err := runChaosWorkloads(o, ws, entries, []uint64{3})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range rep.Cells {
			fmt.Fprintf(&b, "%s %s %d %d %+v\n", c.Workload, c.Spec, c.Seed, c.Cycles, c.Faults)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("chaos runs diverged between identical invocations:\n--- first\n%s--- second\n%s", a, b)
	}
}
