package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// SuiteResults caches one full sweep: every benchmark under every setup.
type SuiteResults struct {
	Setups  []Setup
	Names   []string
	Results map[string]map[string]Result // benchmark -> setup -> result
}

// RunSuite runs all 19 benchmarks under the given setups with one
// synchronization style. Cells run across Options.Parallelism worker
// goroutines, each on its own Machine and Kernel; the collected results
// are byte-identical to a serial sweep (each simulation is fully
// deterministic and shares no state with its siblings).
func RunSuite(setups []Setup, style workload.SyncStyle, o Options) (*SuiteResults, error) {
	o = o.fill()
	ps, err := o.profiles()
	if err != nil {
		return nil, err
	}
	type cell struct {
		p workload.Profile
		s Setup
	}
	var cells []cell
	for _, p := range ps {
		for _, s := range setups {
			cells = append(cells, cell{p, s})
		}
	}
	results := make([]Result, len(cells))
	err = o.forEach(len(cells), func(i int) error {
		c := cells[i]
		o.Logf("run %-14s %-13s (%s)", c.p.Name, c.s.Name, style)
		res, err := RunBenchmark(c.p, c.s, style, o)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	sr := &SuiteResults{
		Setups:  setups,
		Results: make(map[string]map[string]Result),
	}
	for _, p := range ps {
		sr.Names = append(sr.Names, p.Name)
		sr.Results[p.Name] = make(map[string]Result, len(setups))
	}
	for i, c := range cells {
		sr.Results[c.p.Name][c.s.Name] = results[i]
	}
	return sr, nil
}

// syncRow extracts per-benchmark sync LLC accesses and mean episode
// latency for the given kinds from a suite sweep, returning the geomean
// across benchmarks per setup (the aggregation of Figures 1 and 20).
func syncRow(sr *SuiteResults, setups []Setup, llcKinds []isa.SyncKind, latKind isa.SyncKind) (llc, lat []float64) {
	llc = make([]float64, len(setups))
	lat = make([]float64, len(setups))
	for i, s := range setups {
		var accs, lats []float64
		for _, name := range sr.Names {
			st := sr.Results[name][s.Name].Stats
			var a uint64
			for _, k := range llcKinds {
				a += st.LLCSyncByKind[k]
			}
			if st.SyncEntries[latKind] == 0 {
				continue // benchmark does not use this construct
			}
			accs = append(accs, float64(a))
			lats = append(lats, st.SyncLatency(latKind))
		}
		llc[i] = metrics.GeoMean(accs)
		lat[i] = metrics.GeoMean(lats)
	}
	return llc, lat
}

// Fig20 derives the per-construct synchronization behaviour from two
// suite sweeps (scalable: CLH + TreeSR; naive: T&T&S + SR): geomean over
// benchmarks of sync-attributed LLC accesses and mean episode latency,
// normalized to the highest value per construct as in the paper. The SR
// barrier row includes its embedded T&T&S lock accesses (Section 5.2:
// the counter is decremented under a lock).
func Fig20(scal, naive *SuiteResults) (llc, lat *metrics.Table) {
	setups := scal.Setups
	cols := make([]string, len(setups))
	for i, s := range setups {
		cols[i] = s.Name
	}
	llc = metrics.NewTable("Figure 20 (LLC accesses, normalized to highest)", cols...)
	lat = metrics.NewTable("Figure 20 (latency, normalized to highest)", cols...)
	rows := []struct {
		name     string
		sr       *SuiteResults
		llcKinds []isa.SyncKind
		latKind  isa.SyncKind
	}{
		{"T&T&S", naive, []isa.SyncKind{isa.SyncAcquire}, isa.SyncAcquire},
		{"CLH", scal, []isa.SyncKind{isa.SyncAcquire}, isa.SyncAcquire},
		{"SR barrier", naive, []isa.SyncKind{isa.SyncBarrier}, isa.SyncBarrier},
		{"TreeSR barrier", scal, []isa.SyncKind{isa.SyncBarrier}, isa.SyncBarrier},
		{"signal-wait", scal, []isa.SyncKind{isa.SyncWait}, isa.SyncWait},
	}
	for _, r := range rows {
		accRow, latRow := syncRow(r.sr, setups, r.llcKinds, r.latKind)
		llc.AddRow(r.name, metrics.NormalizeToMax(accRow)...)
		lat.AddRow(r.name, metrics.NormalizeToMax(latRow)...)
	}
	return llc, lat
}

// Fig1 is the motivation figure: Invalidation vs BackOff-{0,5,10,15} on
// CLH lock and TreeSR barrier spin-waiting (geomean over benchmarks,
// normalized to the highest value) — the back-off subset of the Figure 20
// scalable rows.
func Fig1(scal *SuiteResults) (llc, lat *metrics.Table) {
	n := 5 // Invalidation + the four back-offs
	if len(scal.Setups) < n {
		n = len(scal.Setups)
	}
	setups := scal.Setups[:n]
	cols := make([]string, len(setups))
	for i, s := range setups {
		cols[i] = s.Name
	}
	llc = metrics.NewTable("Figure 1 (LLC accesses, normalized to highest)", cols...)
	lat = metrics.NewTable("Figure 1 (latency, normalized to highest)", cols...)
	for _, r := range []struct {
		name string
		kind isa.SyncKind
	}{{"CLH", isa.SyncAcquire}, {"TreeSR barrier", isa.SyncBarrier}} {
		accRow, latRow := syncRow(scal, setups, []isa.SyncKind{r.kind}, r.kind)
		llc.AddRow(r.name, metrics.NormalizeToMax(accRow)...)
		lat.AddRow(r.name, metrics.NormalizeToMax(latRow)...)
	}
	return llc, lat
}

// suiteTables converts a suite sweep into execution-time and traffic
// tables normalized to Invalidation, with a geomean row (Figure 21).
func suiteTables(sr *SuiteResults, title string) (timeT, trafT *metrics.Table) {
	cols := make([]string, len(sr.Setups))
	for i, s := range sr.Setups {
		cols[i] = s.Name
	}
	timeT = metrics.NewTable(title+" execution time (normalized to Invalidation)", cols...)
	trafT = metrics.NewTable(title+" network traffic (normalized to Invalidation)", cols...)
	for _, name := range sr.Names {
		byS := sr.Results[name]
		baseT := byS["Invalidation"].Time()
		baseN := byS["Invalidation"].Traffic()
		tRow := make([]float64, len(sr.Setups))
		nRow := make([]float64, len(sr.Setups))
		for i, s := range sr.Setups {
			tRow[i] = byS[s.Name].Time() / baseT
			nRow[i] = byS[s.Name].Traffic() / baseN
		}
		timeT.AddRow(name, tRow...)
		trafT.AddRow(name, nRow...)
	}
	timeT.GeoMeanRow("geomean")
	trafT.GeoMeanRow("geomean")
	return timeT, trafT
}

// SuiteToFig21 converts an existing scalable-suite sweep into the
// Figure 21 tables.
func SuiteToFig21(sr *SuiteResults) (timeT, trafT *metrics.Table) {
	return suiteTables(sr, "Figure 21")
}

// Fig22 converts a suite sweep into the energy breakdown of Figure 22:
// per setup, the geomean across benchmarks of L1 / LLC / network /
// callback-directory energy, normalized to Invalidation's total.
func Fig22(sr *SuiteResults) *metrics.Table {
	t := metrics.NewTable("Figure 22 energy (normalized to Invalidation total)",
		"L1", "LLC", "Network", "CBDir", "Total")
	for _, s := range sr.Setups {
		var l1, llc, net, cb, tot []float64
		for _, name := range sr.Names {
			base := sr.Results[name]["Invalidation"].Energy.Total()
			e := sr.Results[name][s.Name].Energy
			l1 = append(l1, e.L1/base)
			llc = append(llc, e.LLC/base)
			net = append(net, e.Network/base)
			cb = append(cb, e.CBDir/base)
			tot = append(tot, e.Total()/base)
		}
		t.AddRow(s.Name, metrics.GeoMean(l1), metrics.GeoMean(llc),
			metrics.GeoMean(net), metrics.GeoMean(cb), metrics.GeoMean(tot))
	}
	return t
}

// Fig23 fixes the barrier to TreeSR and compares T&T&S vs CLH locks:
// geomean execution time and traffic over all benchmarks, normalized to
// Invalidation-with-CLH.
func Fig23(o Options) (*metrics.Table, error) {
	o = o.fill()
	setups := StandardSetups()
	lockKinds := []workload.LockKind{workload.LockTTAS, workload.LockCLH}

	// base: Invalidation with CLH locks (one of the grid cells).
	type key struct {
		lock  workload.LockKind
		setup string
	}
	ps, err := o.profiles()
	if err != nil {
		return nil, err
	}
	type cell struct {
		p  workload.Profile
		lk workload.LockKind
		s  Setup
	}
	var cells []cell
	for _, p := range ps {
		for _, lk := range lockKinds {
			for _, s := range setups {
				cells = append(cells, cell{p, lk, s})
			}
		}
	}
	results := make([]Result, len(cells))
	err = o.forEach(len(cells), func(i int) error {
		c := cells[i]
		o.Logf("run fig23 %-14s lock=%-6s %-13s", c.p.Name, c.lk, c.s.Name)
		res, err := RunBenchmarkCustom(c.p, c.s, c.lk, workload.BarrierTree, o)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	times := map[key][]float64{}
	trafs := map[key][]float64{}
	cellsPerProfile := len(lockKinds) * len(setups)
	for pi := range ps {
		var base Result
		for i := pi * cellsPerProfile; i < (pi+1)*cellsPerProfile; i++ {
			if cells[i].lk == workload.LockCLH && cells[i].s.Name == setups[0].Name {
				base = results[i]
			}
		}
		for i := pi * cellsPerProfile; i < (pi+1)*cellsPerProfile; i++ {
			k := key{cells[i].lk, cells[i].s.Name}
			times[k] = append(times[k], results[i].Time()/base.Time())
			trafs[k] = append(trafs[k], results[i].Traffic()/base.Traffic())
		}
	}
	t := metrics.NewTable("Figure 23 (TreeSR barrier; geomean, normalized to Invalidation+CLH)",
		"time", "traffic")
	for _, lk := range lockKinds {
		for _, s := range setups {
			k := key{lk, s.Name}
			t.AddRow(fmt.Sprintf("%s + %s", s.Name, lk),
				metrics.GeoMean(times[k]), metrics.GeoMean(trafs[k]))
		}
	}
	return t, nil
}

// SensitivityEntries reproduces the Section 5.2 observation that growing
// the callback directory beyond 4 entries per bank does not change the
// results: geomean execution time over a lock-heavy benchmark subset,
// normalized to 4 entries.
func SensitivityEntries(o Options) (*metrics.Table, error) {
	o = o.fill()
	subset := []string{"radiosity", "fluidanimate", "raytrace", "barnes"}
	entries := []int{4, 16, 64, 256}
	setup, _ := SetupByName("CB-One")
	t := metrics.NewTable("Callback directory size sensitivity (time normalized to 4 entries/bank)",
		"4", "16", "64", "256")
	type cell struct {
		p       workload.Profile
		entries int
	}
	var cells []cell
	for _, name := range subset {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			cells = append(cells, cell{p, e})
		}
	}
	results := make([]Result, len(cells))
	err := o.forEach(len(cells), func(i int) error {
		c := cells[i]
		oe := o
		oe.CBEntries = c.entries
		o.Logf("run sensitivity %-14s entries=%d", c.p.Name, c.entries)
		res, err := RunBenchmark(c.p, setup, workload.StyleScalable, oe)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range subset {
		row := make([]float64, len(entries))
		base := results[bi*len(entries)].Time()
		for i := range entries {
			row[i] = results[bi*len(entries)+i].Time() / base
		}
		t.AddRow(name, row...)
	}
	t.GeoMeanRow("geomean")
	return t, nil
}

// Headline extracts the paper's Section 5.4 summary claims from a
// scalable-suite sweep: CB-One vs Invalidation and vs BackOff-10, for
// execution time, traffic, and energy (geomean across benchmarks).
type Headline struct {
	TimeVsInvalidation    float64 // callbacks' time as a fraction of Invalidation (paper: 0.89)
	TimeVsBackoff10       float64 // paper: 0.95
	TrafficVsInvalidation float64 // paper: 0.73
	TrafficVsBackoff10    float64 // paper: 0.85
	EnergyVsInvalidation  float64 // paper: 0.60
	EnergyVsBackoff10     float64 // paper: 0.95
}

// Ratio returns the geomean over benchmarks of metric(num)/metric(den)
// for two setups in the sweep.
func (sr *SuiteResults) Ratio(num, den string, metric func(Result) float64) float64 {
	var rs []float64
	for _, name := range sr.Names {
		rs = append(rs, metric(sr.Results[name][num])/metric(sr.Results[name][den]))
	}
	return metrics.GeoMean(rs)
}

// NaiveSummary holds the Section 5.4.1 naive-synchronization claims:
// with T&T&S + SR barrier, callbacks beat Invalidation by ~40% in time
// and ~34% in traffic, and match BackOff-10's time with ~12% less
// traffic.
type NaiveSummary struct {
	TimeVsInvalidation    float64 // paper: ~0.60
	TrafficVsInvalidation float64 // paper: ~0.66
	TimeVsBackoff10       float64 // paper: ~1.00
	TrafficVsBackoff10    float64 // paper: ~0.88
}

// ComputeNaiveSummary derives the naive-synchronization summary from a
// naive-style suite sweep.
func ComputeNaiveSummary(naive *SuiteResults) NaiveSummary {
	timeM := func(r Result) float64 { return r.Time() }
	trafM := func(r Result) float64 { return r.Traffic() }
	return NaiveSummary{
		TimeVsInvalidation:    naive.Ratio("CB-One", "Invalidation", timeM),
		TrafficVsInvalidation: naive.Ratio("CB-One", "Invalidation", trafM),
		TimeVsBackoff10:       naive.Ratio("CB-One", "BackOff-10", timeM),
		TrafficVsBackoff10:    naive.Ratio("CB-One", "BackOff-10", trafM),
	}
}

func (n NaiveSummary) String() string {
	return fmt.Sprintf(`Naive synchronization (T&T&S + SR barrier, CB-One geomean):
  execution time vs Invalidation : %.3f   (paper: ~0.60)
  network traffic vs Invalidation: %.3f   (paper: ~0.66)
  execution time vs BackOff-10   : %.3f   (paper: ~1.00)
  network traffic vs BackOff-10  : %.3f   (paper: ~0.88)
`, n.TimeVsInvalidation, n.TrafficVsInvalidation, n.TimeVsBackoff10, n.TrafficVsBackoff10)
}

// ComputeHeadline derives the headline ratios from a suite sweep.
func ComputeHeadline(sr *SuiteResults) Headline {
	ratio := sr.Ratio
	timeM := func(r Result) float64 { return r.Time() }
	trafM := func(r Result) float64 { return r.Traffic() }
	enM := func(r Result) float64 { return r.Energy.Total() }
	return Headline{
		TimeVsInvalidation:    ratio("CB-One", "Invalidation", timeM),
		TimeVsBackoff10:       ratio("CB-One", "BackOff-10", timeM),
		TrafficVsInvalidation: ratio("CB-One", "Invalidation", trafM),
		TrafficVsBackoff10:    ratio("CB-One", "BackOff-10", trafM),
		EnergyVsInvalidation:  ratio("CB-One", "Invalidation", enM),
		EnergyVsBackoff10:     ratio("CB-One", "BackOff-10", enM),
	}
}

func (h Headline) String() string {
	return fmt.Sprintf(`Headline (CB-One, geomean over 19 benchmarks):
  execution time vs Invalidation : %.3f   (paper: ~0.89)
  execution time vs BackOff-10   : %.3f   (paper: ~0.95)
  network traffic vs Invalidation: %.3f   (paper: ~0.73)
  network traffic vs BackOff-10  : %.3f   (paper: ~0.85)
  energy vs Invalidation         : %.3f   (paper: ~0.60)
  energy vs BackOff-10           : %.3f   (paper: ~0.95)
`, h.TimeVsInvalidation, h.TimeVsBackoff10, h.TrafficVsInvalidation,
		h.TrafficVsBackoff10, h.EnergyVsInvalidation, h.EnergyVsBackoff10)
}
