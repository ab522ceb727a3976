package main

import (
	"bufio"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupRepeats = 15

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeSetup runs fn setupRepeats times and returns the median seconds.
// The teardown fn returns, if any, runs untimed after each repetition.
func timeSetup(fn func() (teardown func(), err error)) (float64, error) {
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // a collection owed by earlier work is not set-up
		start := time.Now()
		teardown, err := fn()
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
		if teardown != nil {
			teardown()
		}
	}
	return median(ts), nil
}

// passes calls pass(0), pass(1), ... until the run has used its time:
// at least minPasses passes, and no new pass starts after seconds have
// elapsed. Whole passes keep every run's mix of cells the same.
func passes(seconds float64, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC() // start each pass from the same heap state
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}

// order returns the seeded permutation of n items for one pass.
func order(seed uint64, pass, n int) []int {
	r := rand.New(rand.NewPCG(seed, uint64(pass)))
	return r.Perm(n)
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, falling back to the Go runtime's total OS memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// passRates fills the throughput metrics from per-pass totals: the
// median over passes of cells and simulated cycles per host second.
func passRates(o *outcome, cells, cycles, walls []float64) {
	var cellRates, cycleRates []float64
	for i, w := range walls {
		cellRates = append(cellRates, cells[i]/w)
		cycleRates = append(cycleRates, cycles[i]/w)
	}
	o.metrics["cells_per_s"] = median(cellRates)
	o.metrics["sim_cycles_per_s"] = median(cycleRates)
	o.samples["cells_per_s"] = len(walls)
	o.samples["sim_cycles_per_s"] = len(walls)
	o.passWalls = walls
}

// latencies fills the latency percentiles from per-unit latencies keyed
// by cell. With perCell, each cell's latencies are first reduced to their
// median: a workload whose cells run once per pass then gives every cell
// the same weight however many passes fit in the run, so the percentile
// does not jump between cells as the pass count changes.
func latencies(o *outcome, byCell map[string][]float64, perCell bool) {
	var lat []float64
	for _, xs := range byCell {
		if perCell {
			lat = append(lat, median(xs))
		} else {
			lat = append(lat, xs...)
		}
	}
	o.metrics["latency_p50_ms"] = quantile(lat, 0.5)
	o.metrics["latency_p90_ms"] = quantile(lat, 0.9)
	o.samples["latency_p50_ms"] = len(lat)
	o.samples["latency_p90_ms"] = len(lat)
}
