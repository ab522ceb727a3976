package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"repro/internal/machine"
)

// Per-layer measurement shared by the traced runs: simulator counters
// read from Stats, Go runtime counters, and a CPU profile folded by
// leaf package into host-time shares.

// simCounters sums the Stats counters of freshly simulated cells.
type simCounters struct {
	instructions, memops                  uint64
	mesiHits, mesiAccesses                uint64
	vipsHits, vipsAccesses, vipsLLC       uint64
	flitHops, messages, linkWait          uint64
	llcMisses                             uint64
	cbdir, wakes, staleWakes, cbEvictions uint64
}

func (s *simCounters) add(p machine.Protocol, st machine.Stats) {
	s.instructions += st.Instructions
	s.memops += st.MemOps
	if p == machine.ProtocolMESI {
		s.mesiHits += st.L1Hits
		s.mesiAccesses += st.L1Accesses
	} else {
		s.vipsHits += st.L1Hits
		s.vipsAccesses += st.L1Accesses
		s.vipsLLC += st.LLCAccesses
	}
	s.flitHops += st.Net.FlitHops
	s.messages += st.Net.Messages
	s.linkWait += st.Net.LinkWait
	s.llcMisses += st.LLCMisses
	s.cbdir += st.CBDirAccesses
	s.wakes += st.CBWakes
	s.staleWakes += st.CBStaleWakes
	s.cbEvictions += st.CBEvictions
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fill reports the counters as totals per pass.
func (s *simCounters) fill(o *outcome, passes int) {
	per := func(v uint64) float64 { return ratio(float64(v), float64(passes)) }
	o.metrics["cpu.instructions"] = per(s.instructions)
	o.metrics["cpu.memops"] = per(s.memops)
	o.metrics["mesi.l1_hit_ratio"] = ratio(float64(s.mesiHits), float64(s.mesiAccesses))
	o.metrics["vips.l1_hit_ratio"] = ratio(float64(s.vipsHits), float64(s.vipsAccesses))
	o.metrics["vips.llc_accesses"] = per(s.vipsLLC)
	o.metrics["noc.flit_hops"] = per(s.flitHops)
	o.metrics["noc.messages"] = per(s.messages)
	o.metrics["noc.link_wait_per_msg"] = ratio(float64(s.linkWait), float64(s.messages))
	o.metrics["mem.llc_misses"] = per(s.llcMisses)
	o.metrics["core.cbdir_accesses"] = per(s.cbdir)
	o.metrics["core.cb_wakes"] = per(s.wakes)
	o.metrics["core.stale_wake_ratio"] = ratio(float64(s.staleWakes), float64(s.wakes))
	o.metrics["core.cb_evictions"] = per(s.cbEvictions)
}

// rtCounters is a snapshot of the Go runtime's allocation and GC totals.
type rtCounters struct {
	mallocs, bytes, gcs, pauseNs uint64
}

func readRuntime() rtCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtCounters{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

func (a rtCounters) add(b rtCounters) rtCounters {
	return rtCounters{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs, a.pauseNs + b.pauseNs}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pauseNs - b.pauseNs}
}

// fillRuntime reports the runtime counters accumulated over the traced
// passes, per memory op, per cell and per pass.
func fillRuntime(o *outcome, rt rtCounters, memops uint64, cells, passes int) {
	o.metrics["runtime.mallocs_per_memop"] = ratio(float64(rt.mallocs), float64(memops))
	o.metrics["runtime.alloc_mb_per_cell"] = ratio(float64(rt.bytes)/(1<<20), float64(cells))
	o.metrics["runtime.gc_count"] = ratio(float64(rt.gcs), float64(passes))
	o.metrics["runtime.gc_pause_ms"] = ratio(float64(rt.pauseNs)/1e6, float64(passes))
}

// profiler records CPU profiles of the measured parts of traced passes
// and sums their samples by leaf function.
type profiler struct {
	buf    bytes.Buffer
	leaves map[string]int64
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	l, err := leafWeights(p.buf.Bytes())
	for fn, w := range l {
		p.leaves[fn] += w
	}
	return err
}

// tracedPasses runs a traced run's schedule. Pass 0 is an untraced
// warm-up; then untraced reference passes (odd) and traced passes (even)
// alternate, at least one of each, until seconds have elapsed. The traced
// passes profile their measured parts with p; the samples, folded by leaf
// package, give the <layer>.host_share metrics. It returns the profiled
// CPU time in nanoseconds by layer.
func tracedPasses(o *outcome, seconds float64, plain func(pass int) error, traced func(pass int, p *profiler) error) (map[string]int64, error) {
	p := &profiler{leaves: map[string]int64{}}
	err := passes(seconds, 3, func(i int) error {
		if i%2 == 1 || i == 0 {
			return plain(i)
		}
		return traced(i, p)
	})
	if err != nil {
		return nil, err
	}
	for l, share := range foldByLayer(p.leaves) {
		o.metrics[l+".host_share"] = share
	}
	byLayer := map[string]int64{}
	var total int64
	for fn, w := range p.leaves {
		byLayer[layerOf(fn)] += w
		total += w
	}
	o.samples["host_share_cpu_ms"] = int(total / 1e6)
	return byLayer, nil
}

// zeroMetrics sets every per-layer metric a workload does not measure.
func zeroMetrics(o *outcome, names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}
