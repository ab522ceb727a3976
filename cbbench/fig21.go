package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/synclib"
	"repro/internal/workload"
)

// The Figure 21 slices: 64-core cells, scalable sync unless noted, run
// serially as cmd/experiments does, each from a freshly built machine
// whose modelled caches start empty. Per-cell construction is timed,
// because every cell of a sweep pays it. The subsets keep one pass at
// 3 to 4 s on a 2-CPU host, so a 15 s run measures four or five whole
// passes.
var (
	mesiProfiles     = []string{"fft", "lu", "water-sp", "streamcluster", "water-nsq"}
	backoffProfiles  = []string{"radiosity", "canneal"}
	callbackProfiles = []string{"swaptions", "blackscholes", "fft", "lu", "dedup", "radix",
		"water-sp", "bodytrack", "streamcluster", "fmm", "canneal", "radiosity"}

	scalable  = []workload.SyncStyle{workload.StyleScalable}
	twoStyles = []workload.SyncStyle{workload.StyleScalable, workload.StyleNaive}
)

// fig21Cores is the Figure 21 machine size.
const fig21Cores = 64

// The experiments package's defaults, which the traced path must match
// to reproduce RunBenchmark's Stats.
const (
	cbEntries   = 4
	cycleBudget = 200_000_000
)

func mesiCells(cores int) ([]cell, error) {
	return grid(mesiProfiles, []string{"Invalidation"}, scalable, cores)
}

func backoffCells(cores int) ([]cell, error) {
	return grid(backoffProfiles, []string{"BackOff-0", "BackOff-5", "BackOff-10", "BackOff-15"}, scalable, cores)
}

func callbackCells(cores int) ([]cell, error) {
	return grid(callbackProfiles, []string{"CB-All", "CB-One"}, twoStyles, cores)
}

func runFig21Mesi(cfg runConfig) (*outcome, error)     { return runFig21(cfg, mesiCells) }
func runFig21Backoff(cfg runConfig) (*outcome, error)  { return runFig21(cfg, backoffCells) }
func runFig21Callback(cfg runConfig) (*outcome, error) { return runFig21(cfg, callbackCells) }

// fig21Run accumulates one Figure 21 workload run.
type fig21Run struct {
	o     *outcome
	cells []cell
	seed  uint64

	// Untraced passes: latencies in ms by cell, and per-pass totals.
	lat                             map[string][]float64
	passWall, passCycles, passCells []float64
	// Traced passes.
	tracedWall []float64
	spans      spans
	events     uint64
	sim        simCounters
	rt         rtCounters
}

func runFig21(cfg runConfig, cellsFor func(cores int) ([]cell, error)) (*outcome, error) {
	cores := fig21Cores
	if cfg.cores != 0 {
		cores = cfg.cores
	}
	o := newOutcome()
	var cells []cell
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if cells, err = cellsFor(cores); err != nil {
			return nil, err
		}
		o.golden, err = loadGolden()
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	r := &fig21Run{o: o, cells: cells, seed: cfg.seed, lat: map[string][]float64{}}
	if !cfg.trace {
		if err := passes(cfg.seconds, 1, r.plainPass); err != nil {
			return nil, err
		}
		passRates(o, r.passCells, r.passCycles, r.passWall)
		latencies(o, r.lat, true)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		o.metrics["setup_s"] = setup
		return o, nil
	}
	cpuNS, err := tracedPasses(o, cfg.seconds, r.plainPass, r.tracedPass)
	if err != nil {
		return nil, err
	}
	n := len(r.tracedWall)
	tracedCells := n * len(cells)
	r.sim.fill(o, n)
	fillRuntime(o, r.rt, r.sim.memops, tracedCells, n)
	perCell := func(d time.Duration) float64 { return ratio(ms(d), float64(tracedCells)) }
	sp := r.spans
	o.metrics["workload.generate_ms"] = perCell(sp.generate)
	o.metrics["machine.new_ms"] = perCell(sp.build)
	o.metrics["machine.load_ms"] = perCell(sp.load)
	o.metrics["machine.run_ms"] = perCell(sp.simulate)
	o.metrics["machine.stats_ms"] = perCell(sp.collect)
	// RunBenchmark's own host time: profile samples whose leaf frame is
	// in the experiments package, per RunBenchmark call.
	o.metrics["experiments.cell_self_ms"] = perCell(time.Duration(cpuNS["experiments"]))
	o.metrics["sim.events"] = ratio(float64(r.events), float64(n))
	o.metrics["sim.ns_per_event"] = ratio(float64(sp.simulate.Nanoseconds()), float64(r.events))
	o.metrics["trace.overhead_ratio"] = median(r.tracedWall) / median(r.passWall[1:])
	o.samples["trace.overhead_ratio"] = n
	zeroMetrics(o, "service.submit_ms", "service.wait_ms", "service.result_ms",
		"service.simulate_ms", "service.cache_hit_ratio", "service.rejects")
	return o, nil
}

// plainPass runs every cell once, in the pass's seeded order, through
// experiments.RunBenchmark.
func (r *fig21Run) plainPass(pass int) error {
	var wall time.Duration
	var cycles uint64
	for _, i := range order(r.seed, pass, len(r.cells)) {
		c := r.cells[i]
		r.o.attempted++
		start := time.Now()
		res, err := runDirect(c)
		d := time.Since(start)
		if err != nil {
			r.o.fail(fmt.Errorf("%s: %w", c.key(), err))
			continue
		}
		wall += d
		cycles += res.Stats.Cycles
		r.lat[c.key()] = append(r.lat[c.key()], ms(d))
		dg, err := digest(res.Stats, res.Energy)
		if err == nil {
			err = r.o.check(c.key(), dg)
		}
		if err != nil {
			r.o.fail(err)
		}
	}
	r.passWall = append(r.passWall, wall.Seconds())
	r.passCycles = append(r.passCycles, float64(cycles))
	r.passCells = append(r.passCells, float64(len(r.cells)))
	return nil
}

// tracedPass runs every cell twice: through experiments.RunBenchmark and
// through runTraced, alternating which goes first so neither gains from
// the other's warm heap. The two results must be byte-identical.
func (r *fig21Run) tracedPass(pass int, p *profiler) error {
	if err := p.start(); err != nil {
		return err
	}
	var wall time.Duration
	for k, i := range order(r.seed, pass, len(r.cells)) {
		c := r.cells[i]
		r.o.attempted++
		var (
			ref, res experiments.Result
			sp       spans
			events   uint64
			rt       rtCounters
			errs     [2]error
		)
		direct := func() { ref, errs[0] = runDirect(c) }
		traced := func() {
			before := readRuntime()
			res, sp, events, errs[1] = runTraced(c)
			rt = readRuntime().sub(before)
		}
		if k%2 == 0 {
			direct()
			traced()
		} else {
			traced()
			direct()
		}
		if err := errors.Join(errs[:]...); err != nil {
			r.o.fail(fmt.Errorf("%s: %w", c.key(), err))
			continue
		}
		r.rt = r.rt.add(rt)
		wall += sp.generate + sp.build + sp.load + sp.simulate + sp.collect
		r.spans.add(sp)
		r.events += events
		r.sim.add(c.setup.Protocol, res.Stats)

		want, err := digest(ref.Stats, ref.Energy)
		if err != nil {
			r.o.fail(err)
			continue
		}
		got, err := digest(res.Stats, res.Energy)
		switch {
		case err != nil:
		case got != want:
			err = fmt.Errorf("%s: traced path digest %s differs from RunBenchmark's %s", c.key(), got, want)
		default:
			err = r.o.check(c.key(), got)
		}
		if err != nil {
			r.o.fail(err)
		}
	}
	r.tracedWall = append(r.tracedWall, wall.Seconds())
	return p.stop()
}

// spans are the times of the public calls one cell is made of.
type spans struct {
	generate, build, load, simulate, collect time.Duration
}

func (s *spans) add(t spans) {
	s.generate += t.generate
	s.build += t.build
	s.load += t.load
	s.simulate += t.simulate
	s.collect += t.collect
}

// runTraced runs one cell through the public calls
// experiments.RunBenchmark is made of, timing each, and also returns the
// number of kernel events the run executed.
func runTraced(c cell) (experiments.Result, spans, uint64, error) {
	var sp spans
	t0 := time.Now()
	g := workload.Generate(c.profile, c.cores, c.style, c.setup.Flavor())
	t1 := time.Now()
	mc := machine.Default(c.setup.Protocol)
	mc.Cores = c.cores
	mc.BackoffLimit = c.setup.BackoffLimit
	mc.CBEntriesPerBank = cbEntries
	m := machine.New(mc, synclib.IsPrivate)
	t2 := time.Now()
	for a, v := range g.Layout.Init {
		m.Store.StoreWord(a, v)
	}
	for tid, prog := range g.Programs {
		m.Load(tid, prog, nil)
	}
	t3 := time.Now()
	err := m.RunContext(context.Background(), cycleBudget)
	t4 := time.Now()
	sp.generate, sp.build, sp.load, sp.simulate = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	if err != nil {
		return experiments.Result{}, sp, 0, err
	}
	st := m.Stats()
	e := energy.Compute(energy.Counts{
		L1Accesses:      st.L1Accesses,
		LLCTagAccesses:  st.LLCAccesses - st.LLCDataAccesses,
		LLCDataAccesses: st.LLCDataAccesses,
		CBDirAccesses:   st.CBDirAccesses,
		FlitHops:        st.Net.FlitHops,
	}, energy.DefaultParams())
	sp.collect = time.Since(t4)
	return experiments.Result{Stats: st, Energy: e}, sp, m.K.Executed(), nil
}
