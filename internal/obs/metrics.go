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

// Counter is a monotonically increasing uint64 metric. Increments are
// single atomic adds; the value wraps around on uint64 overflow (the
// Prometheus convention — scrapers treat a decrease as a counter
// reset), which the overflow tests pin.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (wrapping on overflow).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set stores n; Add adjusts by delta; Value reads.
func (g *Gauge) Set(n int64)  { g.v.Store(n) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: counts per upper bound (le,
// inclusive — an observation equal to a boundary lands in that bucket)
// plus a +Inf overflow bucket, a running sum, and a count. Observe is
// two atomic adds and one float CAS loop; bucket search is a linear
// scan over the (small, fixed) bound list.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DefTimeBuckets are the default latency buckets in seconds: 1µs to 5s,
// wide enough for both the microsecond decomposition probes and queued
// heavy containment queries.
var DefTimeBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total observation count; Sum the observation sum.
func (h *Histogram) Count() uint64 { return h.count.Load() }
func (h *Histogram) Sum() float64  { return math.Float64frombits(h.sumBits.Load()) }

// BucketCount reads the raw (non-cumulative) count of bucket i, where
// i == len(bounds) is the +Inf bucket.
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i].Load() }

// MaxVecSeries bounds the number of distinct label combinations one
// CounterVec/HistogramVec will materialize. Label values often come
// from request data (db names, op strings); without a bound a hostile
// or buggy client could grow the exposition without limit. Once the cap
// is reached, further new combinations all collapse into a single
// reserved series whose every label value is "overflow" — existing
// series keep counting normally, and the overflow series makes the
// cardinality blowout itself visible in the exposition.
const MaxVecSeries = 256

// vecOverflow is the label value of the collapsed overflow series.
const vecOverflow = "overflow"

// vec is the shared label-series machinery of CounterVec/HistogramVec:
// a lock-free read path (sync.Map keyed by joined label values) over
// lazily created series, bounded at MaxVecSeries distinct combinations.
type vec struct {
	labels []string
	m      sync.Map // joined values -> *series
	n      atomic.Int64
}

type series struct {
	values []string
	metric any // *Counter or *Histogram
}

func vecKey(values []string) string { return strings.Join(values, "\xff") }

func (v *vec) with(values []string, mk func() any) any {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := vecKey(values)
	if s, ok := v.m.Load(key); ok {
		return s.(*series).metric
	}
	// New combination: admit it only under the cardinality cap,
	// otherwise redirect to the shared overflow series. The count is
	// approximate under races (two goroutines can admit the 256th
	// series concurrently); the bound only needs to hold within a small
	// constant, not exactly.
	if v.n.Load() >= MaxVecSeries {
		ov := make([]string, len(v.labels))
		for i := range ov {
			ov[i] = vecOverflow
		}
		key = vecKey(ov)
		if s, ok := v.m.Load(key); ok {
			return s.(*series).metric
		}
		s, _ := v.m.LoadOrStore(key, &series{values: ov, metric: mk()})
		return s.(*series).metric
	}
	s, loaded := v.m.LoadOrStore(key, &series{values: append([]string(nil), values...), metric: mk()})
	if !loaded {
		v.n.Add(1)
	}
	return s.(*series).metric
}

// sorted snapshots the series in label-value order (deterministic
// exposition).
func (v *vec) sorted() []*series {
	var out []*series
	v.m.Range(func(_, s any) bool {
		out = append(out, s.(*series))
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return vecKey(out[i].values) < vecKey(out[j].values)
	})
	return out
}

// CounterVec is a counter family with labels. With resolves one labeled
// Counter; hot paths should resolve once and keep the handle.
type CounterVec struct{ vec }

// With returns the counter for the given label values (created on
// first use).
func (c *CounterVec) With(values ...string) *Counter {
	return c.with(values, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	vec
	bounds []float64
}

// With returns the histogram for the given label values.
func (h *HistogramVec) With(values ...string) *Histogram {
	return h.with(values, func() any { return newHistogram(h.bounds) }).(*Histogram)
}

// family is one registered metric family.
type family struct {
	name, help, typ string
	counter         *Counter
	gauge           *Gauge
	gaugeFn         func() float64
	hist            *Histogram
	counterVec      *CounterVec
	histVec         *HistogramVec
}

// Registry holds metric families and writes them in the Prometheus text
// exposition format, in registration order with label series sorted.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("obs: duplicate metric " + f.name)
	}
	r.names[f.name] = true
	r.fams = append(r.fams, f)
}

// Counter registers and returns a label-free counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers and returns a label-free gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", gaugeFn: fn})
}

// Histogram registers a label-free histogram with the given upper
// bounds (DefTimeBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// CounterVec registers a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{vec{labels: append([]string(nil), labels...)}}
	r.register(&family{name: name, help: help, typ: "counter", counterVec: c})
	return c
}

// HistogramVec registers a histogram family with the given label keys.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	h := &HistogramVec{vec: vec{labels: append([]string(nil), labels...)}, bounds: bounds}
	r.register(&family{name: name, help: help, typ: "histogram", histVec: h})
	return h
}

// Label is one label key/value pair of a Series.
type Label struct{ Key, Value string }

// Series is one sample of a dynamically written family (WriteFamily):
// label pairs plus a value.
type Series struct {
	Labels []Label
	Value  float64
}

// WriteFamily writes one metric family in the Prometheus text format —
// the low-level hook for families whose series are computed at scrape
// time (per-database gauges). Series are written in the given order.
func WriteFamily(w io.Writer, name, typ, help string, series ...Series) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	for _, s := range series {
		writeSample(w, name, s.Labels, s.Value)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name string, labels []Label, v float64) {
	io.WriteString(w, name)
	if len(labels) > 0 {
		io.WriteString(w, "{")
		for i, l := range labels {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, `%s="%s"`, l.Key, escapeLabel(l.Value))
		}
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, formatValue(v))
	io.WriteString(w, "\n")
}

func labelsOf(keys, values []string) []Label {
	out := make([]Label, len(keys))
	for i := range keys {
		out[i] = Label{Key: keys[i], Value: values[i]}
	}
	return out
}

func writeHistogram(w io.Writer, name string, labels []Label, h *Histogram) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := append(append([]Label(nil), labels...), Label{Key: "le", Value: formatBound(b)})
		writeSample(w, name+"_bucket", le, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	le := append(append([]Label(nil), labels...), Label{Key: "le", Value: "+Inf"})
	writeSample(w, name+"_bucket", le, float64(cum))
	writeSample(w, name+"_sum", labels, h.Sum())
	writeSample(w, name+"_count", labels, float64(cum))
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// WritePrometheus writes every registered family in the text exposition
// format (version 0.0.4). Output is deterministic: families in
// registration order, label series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		switch {
		case f.counter != nil:
			writeSample(w, f.name, nil, float64(f.counter.Value()))
		case f.gauge != nil:
			writeSample(w, f.name, nil, float64(f.gauge.Value()))
		case f.gaugeFn != nil:
			writeSample(w, f.name, nil, f.gaugeFn())
		case f.hist != nil:
			writeHistogram(w, f.name, nil, f.hist)
		case f.counterVec != nil:
			for _, s := range f.counterVec.sorted() {
				writeSample(w, f.name, labelsOf(f.counterVec.labels, s.values), float64(s.metric.(*Counter).Value()))
			}
		case f.histVec != nil:
			for _, s := range f.histVec.sorted() {
				writeHistogram(w, f.name, labelsOf(f.histVec.labels, s.values), s.metric.(*Histogram))
			}
		}
	}
}
