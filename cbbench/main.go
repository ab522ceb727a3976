// Command cbbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every result against committed
// Stats digests, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	bash cbbench/run.sh --workload fig21-mesi --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// cores overrides the workload's simulated core count (0 keeps the
	// default); the self-tests use it to run every workload at 4 cores.
	cores int
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	// errs keeps the first failure messages for the report.
	errs    []string
	metrics map[string]float64
	// samples is the number of measurements behind each reported median
	// or percentile.
	samples map[string]int
	// digests maps every cell the run completed to its Stats digest, and
	// golden to the committed one.
	digests, golden map[string]string
	// cold and hit count cbsimd results by how the job obtained them.
	cold, hit int
	// passWalls are the untraced passes' wall times in seconds.
	passWalls []float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, digests: map[string]string{}}
}

// fail records one failed or mismatching cell or request.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err.Error())
	}
}

// check records a completed cell's digest and compares it with the
// committed golden value.
func (o *outcome) check(key, got string) error {
	o.digests[key] = got
	return checkDigest(o.golden, key, got)
}

func checkDigest(golden map[string]string, key, got string) error {
	want, ok := golden[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no committed digest (run with -update-golden)", key)
	case want != got:
		return fmt.Errorf("%s: stats digest %s, committed %s", key, got, want)
	}
	return nil
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the result line for a run.
func report(o *outcome, trace bool) ([]byte, error) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	ms := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := o.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		ms[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
}

// runContext describes where and how a result was measured.
func runContext(cfg runConfig, name string, o *outcome) map[string]any {
	return map[string]any{
		"workload":    name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"commit":      commit(),
		"samples":     o.samples,
		"cold":        o.cold,
		"hit":         o.hit,
		"pass_wall_s": o.passWalls,
		"errors":      o.errs,
	}
}

// commit names the source revision when the benchmark runs from the root
// of a git work tree, else "unknown" (a plain source checkout).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	name := flag.String("workload", "", `workload to run, or "all" for every workload in turn`)
	seed := flag.Uint64("seed", 1, "seed fixing cell order and request schedule")
	seconds := flag.Float64("seconds", runSeconds, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	writeSpec := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	updateGolden := flag.String("update-golden", "", "recompute every committed digest into this file and exit")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traceFlag, *writeSpec, *updateGolden); err != nil {
		fmt.Fprintln(os.Stderr, "cbbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("results failed the correctness check")

func run(name string, seed uint64, seconds float64, traceFlag int, writeSpec, updateGolden string) error {
	switch {
	case writeSpec != "":
		b, err := specJSON()
		if err != nil {
			return err
		}
		return os.WriteFile(writeSpec, b, 0o644)
	case updateGolden != "":
		return writeGolden(updateGolden)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	ws := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []workloadSpec{w}
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: traceFlag == 1}
	failed := 0
	for _, w := range ws {
		n, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		failed += n
	}
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// runWorkload runs one workload and prints its context and result lines.
// It returns the number of failed cells or requests.
func runWorkload(w workloadSpec, cfg runConfig) (int, error) {
	start := time.Now()
	o, err := w.run(cfg)
	if err != nil {
		return 0, err
	}
	line, err := report(o, cfg.trace)
	if err != nil {
		return 0, err
	}
	ctx := runContext(cfg, w.Name, o)
	ctx["wall_s"] = time.Since(start).Seconds()
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "cbbench: failure:", e)
	}
	cb, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return 0, err
	}
	fmt.Println(string(cb))
	fmt.Println(string(line))
	return o.failed, nil
}
