package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/service"
)

// The cbsimd workloads drive an in-process service.Server through its
// HTTP API. Each client runs a closed loop: submit a single-cell job,
// follow its event stream to completion, fetch the result and check its
// bytes, then submit the next. A request's latency runs from submit to
// verified result.
const (
	serviceCores = 16
	// serviceLoad is the number of clients and of daemon workers, capped
	// at the host's CPU count so the load never oversubscribes it.
	serviceLoad = 2
	// The cold workload requests every coldStride-th of the 266 distinct
	// cells (19 profiles x 7 setups x 2 styles), so its set spans
	// profiles, setups and styles and one pass stays near 4 s on a 2-CPU
	// host. The hit workload's cached set is every hotStride-th callback
	// cell: the cheapest to simulate, so refilling a fresh daemon's cache
	// before each pass takes little of the run.
	coldStride = 4
	hotStride  = 3
	// hitPassRequests is the length of one hit pass.
	hitPassRequests = 4000
)

func loadThreads() int { return min(serviceLoad, runtime.NumCPU()) }

// strided returns every stride-th cell of the grid of all 19 profiles,
// the given setups and both sync styles.
func strided(setups []string, stride, cores int) ([]cell, error) {
	all, err := grid(nil, setups, twoStyles, cores)
	if err != nil {
		return nil, err
	}
	var picked []cell
	for i := 0; i < len(all); i += stride {
		picked = append(picked, all[i])
	}
	return picked, nil
}

func coldCells(cores int) ([]cell, error) {
	var setups []string
	for _, s := range experiments.StandardSetups() {
		setups = append(setups, s.Name)
	}
	return strided(setups, coldStride, cores)
}

func hotCells(cores int) ([]cell, error) {
	return strided([]string{"CB-All", "CB-One"}, hotStride, cores)
}

// daemon is one cbsimd server behind an httptest listener.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	hc  *http.Client
}

// startDaemon starts a server and waits for its first healthy /healthz.
func startDaemon() (*daemon, error) {
	srv, err := service.New(service.Config{Workers: loadThreads(), Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("starting cbsimd: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	d := &daemon{srv: srv, ts: ts, hc: ts.Client()}
	resp, err := d.hc.Get(ts.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener and drains the server's workers.
func (d *daemon) close() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // idle at close: nothing in flight to lose
}

// response is one request's outcome, measured by its client.
type response struct {
	submit, wait, result time.Duration
	cached               bool
	simulateMS           float64
	stats                machine.Stats
	digest               string
	rejected             bool
	err                  error
}

func (r response) latency() time.Duration { return r.submit + r.wait + r.result }

var errRejected = errors.New("job rejected with backpressure")

// request runs one single-cell job to its verified result.
func (d *daemon) request(c cell, v *verifier) (r response) {
	t0 := time.Now()
	id, err := d.submit(c)
	t1 := time.Now()
	r.submit = t1.Sub(t0)
	if err != nil {
		r.rejected = errors.Is(err, errRejected)
		r.err = fmt.Errorf("%s: submit: %w", c.key(), err)
		return r
	}
	if err := d.await(id); err != nil {
		r.err = fmt.Errorf("%s: %s: %w", c.key(), id, err)
		return r
	}
	t2 := time.Now()
	r.wait = t2.Sub(t1)
	r.err = d.fetch(id, c, v, &r)
	r.result = time.Since(t2)
	return r
}

func (d *daemon) submit(c cell) (string, error) {
	body, err := json.Marshal(service.JobRequest{
		Benchmark: c.profile.Name, Setup: c.setup.Name,
		Cores: c.cores, Style: styleName(c.style), Parallelism: 1,
	})
	if err != nil {
		return "", err
	}
	resp, err := d.hc.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", errRejected
	default:
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("decoding job status: %w", err)
	}
	return st.ID, nil
}

// await follows the job's NDJSON event stream until it ends, and
// requires the last event to be job_done.
func (d *daemon) await(id string) error {
	resp, err := d.hc.Get(d.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	var last service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("decoding event: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last.Type != "job_done" {
		return fmt.Errorf("job ended with %s: %s", last.Type, last.Error)
	}
	return nil
}

// fetch reads the job's result and has it verified.
func (d *daemon) fetch(id string, c cell, v *verifier, r *response) error {
	resp, err := d.hc.Get(d.ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s", resp.Status)
	}
	var res service.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if len(res.Cells) != 1 {
		return fmt.Errorf("result has %d cells, want 1", len(res.Cells))
	}
	r.cached = res.Cells[0].Cached
	r.simulateMS = res.Cells[0].WallMS
	r.stats, r.digest, err = v.verify(c, res.Cells[0].Data)
	return err
}

// verifier checks cbsimd cell payloads against the committed digests.
// It is shared by the clients of a run.
type verifier struct {
	golden map[string]string
	mu     sync.Mutex
	// seen holds each cell's verified payload: a later payload with the
	// same bytes decodes to the same Stats, so it is not decoded again.
	seen map[string]verifiedPayload
}

type verifiedPayload struct {
	data   []byte
	stats  machine.Stats
	digest string
}

// verify checks that a payload decodes to the Stats and Energy of a
// direct run of cell c, and returns its Stats and digest.
func (v *verifier) verify(c cell, data []byte) (machine.Stats, string, error) {
	v.mu.Lock()
	p, ok := v.seen[c.key()]
	v.mu.Unlock()
	if ok && bytes.Equal(p.data, data) {
		return p.stats, p.digest, nil
	}
	var payload struct {
		Spec   service.CellSpec `json:"spec"`
		Stats  machine.Stats    `json:"stats"`
		Energy energy.Breakdown `json:"energy"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return machine.Stats{}, "", fmt.Errorf("decoding cell payload: %w", err)
	}
	sp := payload.Spec
	if sp.Benchmark != c.profile.Name || sp.Setup != c.setup.Name || sp.Cores != c.cores || sp.Style != styleName(c.style) {
		return machine.Stats{}, "", fmt.Errorf("result is for %s/%s/%s/%d", sp.Benchmark, sp.Setup, sp.Style, sp.Cores)
	}
	dg, err := digest(payload.Stats, payload.Energy)
	if err == nil {
		err = checkDigest(v.golden, c.key(), dg)
	}
	if err != nil {
		return machine.Stats{}, "", err
	}
	v.mu.Lock()
	v.seen[c.key()] = verifiedPayload{data: bytes.Clone(data), stats: payload.Stats, digest: dg}
	v.mu.Unlock()
	return payload.Stats, dg, nil
}

// serviceRun accumulates one cbsimd workload run.
type serviceRun struct {
	o        *outcome
	cells    []cell
	verifier *verifier

	// lat holds latencies in ms by cell; perCell says to report their
	// percentiles over per-cell medians (see latencies).
	lat                             map[string][]float64
	perCell                         bool
	passWall, passCycles, passCells []float64

	// prof is set during traced passes.
	prof                     *profiler
	tracedWall               []float64
	submit, wait, result     time.Duration
	simulateMS               float64
	requests, fresh, rejects int
	cacheHits, cacheMisses   uint64
	sim                      simCounters
	rt                       rtCounters
}

// pass runs the requests idx over the closed loop and checks them.
// wantCached says how every result must have been obtained; record says
// whether the pass is measured.
func (s *serviceRun) pass(d *daemon, idx []int, wantCached, record bool) error {
	if record && s.prof != nil {
		if err := s.prof.start(); err != nil {
			return err
		}
	}
	before := readRuntime()
	cache0 := d.srv.CacheStats()
	out := make([]response, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < loadThreads(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				out[k] = d.request(s.cells[idx[k]], s.verifier)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var rt rtCounters
	if record && s.prof != nil {
		rt = readRuntime().sub(before)
		if err := s.prof.stop(); err != nil {
			return err
		}
	}

	var cycles uint64
	for k, r := range out {
		c := s.cells[idx[k]]
		s.o.attempted++
		if r.err == nil && r.cached != wantCached {
			r.err = fmt.Errorf("%s: served cached=%v, want %v", c.key(), r.cached, wantCached)
		}
		if r.rejected {
			s.rejects++
		}
		if r.err != nil {
			s.o.fail(r.err)
			continue
		}
		s.o.digests[c.key()] = r.digest
		if r.cached {
			s.o.hit++
		} else {
			s.o.cold++
		}
		cycles += r.stats.Cycles
		if !record {
			continue
		}
		if s.prof == nil {
			s.lat[c.key()] = append(s.lat[c.key()], ms(r.latency()))
			continue
		}
		s.requests++
		s.submit += r.submit
		s.wait += r.wait
		s.result += r.result
		if !r.cached {
			s.fresh++
			s.simulateMS += r.simulateMS
			s.sim.add(c.setup.Protocol, r.stats)
		}
	}
	switch {
	case !record:
		return nil
	case s.prof == nil:
		s.passWall = append(s.passWall, wall.Seconds())
		s.passCycles = append(s.passCycles, float64(cycles))
		s.passCells = append(s.passCells, float64(len(idx)))
		return nil
	}
	s.tracedWall = append(s.tracedWall, wall.Seconds())
	s.rt = s.rt.add(rt)
	cache := d.srv.CacheStats()
	s.cacheHits += cache.Hits - cache0.Hits
	s.cacheMisses += cache.Misses - cache0.Misses
	return nil
}

// runService measures one cbsimd workload: it times the set-up (cell
// list, committed digests, daemon start and first /healthz), lets run
// drive the workload's passes, and reports the metrics.
func runService(cfg runConfig, cellsFor func(cores int) ([]cell, error), perCell bool, run func(s *serviceRun, cfg runConfig) error) (*outcome, error) {
	cores := serviceCores
	if cfg.cores != 0 {
		cores = cfg.cores
	}
	o := newOutcome()
	s := &serviceRun{o: o, lat: map[string][]float64{}, perCell: perCell}
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if s.cells, err = cellsFor(cores); err != nil {
			return nil, err
		}
		if o.golden, err = loadGolden(); err != nil {
			return nil, err
		}
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		return d.close, nil
	})
	if err != nil {
		return nil, err
	}
	s.verifier = &verifier{golden: o.golden, seen: map[string]verifiedPayload{}}
	if err := run(s, cfg); err != nil {
		return nil, err
	}
	if !cfg.trace {
		passRates(o, s.passCells, s.passCycles, s.passWall)
		latencies(o, s.lat, s.perCell)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		o.metrics["setup_s"] = setup
		return o, nil
	}
	n := len(s.tracedWall)
	s.sim.fill(o, n)
	fillRuntime(o, s.rt, s.sim.memops, s.requests, n)
	perReq := func(d time.Duration) float64 { return ratio(ms(d), float64(s.requests)) }
	o.metrics["service.submit_ms"] = perReq(s.submit)
	o.metrics["service.wait_ms"] = perReq(s.wait)
	o.metrics["service.result_ms"] = perReq(s.result)
	o.metrics["service.simulate_ms"] = ratio(s.simulateMS, float64(s.fresh))
	o.metrics["service.cache_hit_ratio"] = ratio(float64(s.cacheHits), float64(s.cacheHits+s.cacheMisses))
	o.metrics["service.rejects"] = float64(s.rejects)
	o.metrics["trace.overhead_ratio"] = median(s.tracedWall) / median(s.passWall[1:])
	o.samples["trace.overhead_ratio"] = n
	// The simulator's internals are not visible through the HTTP API.
	zeroMetrics(o, "sim.events", "sim.ns_per_event", "workload.generate_ms", "machine.new_ms",
		"machine.load_ms", "machine.run_ms", "machine.stats_ms", "experiments.cell_self_ms")
	return o, nil
}

// measure runs the untraced passes, or the traced run's schedule.
func (s *serviceRun) measure(cfg runConfig, pass func(i int) error) error {
	if !cfg.trace {
		return passes(cfg.seconds, 1, pass)
	}
	_, err := tracedPasses(s.o, cfg.seconds, pass, func(i int, p *profiler) error {
		s.prof = p
		defer func() { s.prof = nil }()
		return pass(i)
	})
	return err
}

// runServiceCold: each pass starts a daemon with an empty cache and
// requests every cell once, in the pass's seeded order.
func runServiceCold(cfg runConfig) (*outcome, error) {
	return runService(cfg, coldCells, true, func(s *serviceRun, cfg runConfig) error {
		return s.measure(cfg, func(i int) error {
			d, err := startDaemon()
			if err != nil {
				return err
			}
			defer d.close()
			return s.pass(d, order(cfg.seed, i, len(s.cells)), false, true)
		})
	})
}

// runServiceHit: each pass starts a daemon, fills its cache with the hot
// cells (untimed), then times hitPassRequests jobs drawn from them at
// random. A fresh daemon per pass keeps every pass's retained job history
// the same size.
func runServiceHit(cfg runConfig) (*outcome, error) {
	return runService(cfg, hotCells, false, func(s *serviceRun, cfg runConfig) error {
		fill := make([]int, len(s.cells))
		for i := range fill {
			fill[i] = i
		}
		return s.measure(cfg, func(i int) error {
			d, err := startDaemon()
			if err != nil {
				return err
			}
			defer d.close()
			if err := s.pass(d, fill, false, false); err != nil {
				return err
			}
			runtime.GC() // the fill's simulation garbage is not the hits' cost
			r := rand.New(rand.NewPCG(cfg.seed, uint64(i)))
			idx := make([]int, hitPassRequests)
			for k := range idx {
				idx[k] = r.IntN(len(s.cells))
			}
			return s.pass(d, idx, true, true)
		})
	})
}
