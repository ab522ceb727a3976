// Package obs is the shared observability layer: a Prometheus-style
// metrics registry (counters, gauges, fixed-bucket histograms) with text
// exposition, plus the simulator-level metric set built on it.
//
// The registry is designed for the simulator's hot paths: counter and
// histogram updates are single atomic operations (no locks, no
// allocations), so per-event instrumentation costs nothing when no
// registry is attached and a handful of nanoseconds when one is. The
// daemon (internal/service) exposes a registry at GET /metrics; the
// experiment harness feeds per-run simulator samples into the same
// primitives.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus exposition type of a metric family.
type MetricType string

// The exposition types the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// ---------------------------------------------------------------- counters

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// -------------------------------------------------------------- histograms

// Histogram counts observations into fixed buckets (cumulative at
// exposition, like Prometheus). Observe is a few atomic adds: safe for
// concurrent use from sweep workers, allocation-free.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket; an implicit
	// +Inf bucket follows.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the bucket upper bounds and their cumulative counts
// (the +Inf bucket is the final element, equal to Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor: the standard shape for cycle-latency
// histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linearly spaced bucket bounds starting at start
// with the given step.
func LinearBuckets(start, step float64, n int) []float64 {
	if n <= 0 {
		panic("obs: LinearBuckets needs n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// ---------------------------------------------------------------- registry

// series is one label-distinct child of a family.
type series struct {
	labels    []Label
	signature string // canonical rendering of labels, for dedup and sort
	counter   *Counter
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    MetricType
	series []*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration takes a lock; the returned handles are
// lock-free. Registering the same name+labels again returns the existing
// handle, so packages can idempotently declare the metrics they touch.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and line feed (backslash first, so
// the other escapes are not themselves escaped).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// lookup finds or creates the family and the series for name+labels,
// panicking on a type conflict (always a programming error).
func (r *Registry) lookup(name, help string, typ MetricType, labels []Label) (*series, bool) {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	sig := signature(labels)
	for _, s := range f.series {
		if s.signature == sig {
			return s, false
		}
	}
	s := &series{labels: append([]Label(nil), labels...), signature: sig}
	f.series = append(f.series, s)
	return s, true
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s, fresh := r.lookup(name, help, TypeCounter, labels)
	if fresh {
		s.counter = &Counter{}
	}
	return s.counter
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (queue depths, cache sizes: state that already lives elsewhere).
// Re-registering the same name+labels replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s, _ := r.lookup(name, help, TypeGauge, labels)
	s.gaugeFn = fn
}

// Histogram returns the fixed-bucket histogram registered under
// name+labels, creating it on first use. buckets are upper bounds; an
// implicit +Inf bucket is added.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s, fresh := r.lookup(name, help, TypeHistogram, labels)
	if fresh {
		s.hist = newHistogram(buckets)
	}
	return s.hist
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (families sorted by name, series by label signature).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	// Snapshot the series slices so rendering (which calls user gauge
	// functions) happens outside the lock.
	type famSnap struct {
		name, help string
		typ        MetricType
		series     []*series
	}
	snaps := make([]famSnap, len(fams))
	for i, f := range fams {
		snaps[i] = famSnap{f.name, f.help, f.typ, append([]*series(nil), f.series...)}
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range snaps {
		sort.Slice(f.series, func(i, j int) bool {
			return f.series[i].signature < f.series[j].signature
		})
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case TypeCounter:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, s.signature, ""), formatFloat(float64(s.counter.Value())))
			case TypeGauge:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, s.signature, ""), formatFloat(v))
			case TypeHistogram:
				bounds, cum := s.hist.Buckets()
				for i, ub := range bounds {
					le := fmt.Sprintf("le=%q", formatFloat(ub))
					fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_bucket", s.signature, le), cum[i])
				}
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_bucket", s.signature, `le="+Inf"`), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name+"_sum", s.signature, ""), formatFloat(s.hist.Sum()))
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_count", s.signature, ""), s.hist.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// seriesName renders name{labels,extra} with empty braces elided.
func seriesName(name, sig, extra string) string {
	switch {
	case sig == "" && extra == "":
		return name
	case sig == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + sig + "}"
	}
	return name + "{" + sig + "," + extra + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
