// Package obs is the zero-dependency observability core shared by the
// experiment CLI (gpsbench) and the daemon (gpsd): a lock-cheap metrics
// registry with Prometheus text exposition, structured-logging helpers over
// log/slog, and a span tracer that writes Chrome trace-event JSON loadable
// in Perfetto.
//
// Everything is designed to be free when off: metric updates are single
// atomic operations, spans cost one context lookup and a nil check when no
// tracer is installed, and a nil *Registry hands out fully functional (but
// unexported) instruments so call sites never branch.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, Prometheus "le" semantics); an implicit +Inf bucket
// catches the rest. Observe is a bucket scan plus three atomic operations.
type Histogram struct {
	uppers  []float64       // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64 // len(uppers)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DefLatencyBuckets is the default latency histogram layout (seconds),
// spanning sub-millisecond HTTP handling to multi-minute simulation jobs.
var DefLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	uppers := append([]float64(nil), buckets...)
	sort.Float64s(uppers)
	for i := 1; i < len(uppers); i++ {
		if uppers[i] == uppers[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bucket %v", uppers[i]))
		}
	}
	return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v: le is inclusive
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

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the non-cumulative per-bucket counts; the last entry
// is the +Inf bucket. The snapshot is not atomic across buckets.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation within the landing bucket, Prometheus
// histogram_quantile-style. With no observations it returns 0; ranks
// landing in the +Inf bucket return the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.uppers) { // +Inf bucket
			if len(h.uppers) == 0 {
				return 0
			}
			return h.uppers[len(h.uppers)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.uppers[i-1]
		}
		frac := (rank - (cum - float64(c))) / float64(c)
		return lower + (h.uppers[i]-lower)*frac
	}
	if len(h.uppers) == 0 {
		return 0
	}
	return h.uppers[len(h.uppers)-1]
}

// HistSummary is a JSON-friendly snapshot of a histogram for the federation
// endpoint and `gpsctl top`: count, sum and interpolated percentiles.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary snapshots the histogram. The snapshot is not atomic across
// buckets; it is for operator dashboards, not invariants.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// metric type names used in TYPE lines and for mismatch checks.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a family: exactly one of the value
// fields is set. fn-backed series are sampled at exposition time, which is
// how the registry absorbs state that lives elsewhere (queue depth, the
// runner's cache stats) without double bookkeeping.
type series struct {
	labels  string // rendered {k="v",...} block, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one metric name: its help/type header plus every label series.
type family struct {
	name, help, typ string
	series          map[string]*series
}

// Registry is a set of named metric families. Get-or-create lookups take
// the registry mutex; the returned instruments are lock-free, so steady
// state code paths hold instrument pointers and never touch the lock.
// A nil *Registry is valid: it hands out working, unregistered instruments
// and exposes nothing, so instrumentation is free to leave in place.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelBlock renders alternating key/value pairs as a canonical label
// block, sorted by key so the same set always produces the same series.
func labelBlock(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	out := "{"
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p.k + `="` + escapeLabel(p.v) + `"`
	}
	return out + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// get returns the series for (name, labels), creating family and series via
// make on first use. Type mismatches on an existing family panic: they are
// programmer errors, not runtime conditions.
func (r *Registry) get(name, help, typ string, kv []string, make func() *series) *series {
	labels := labelBlock(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s := f.series[labels]
	if s == nil {
		s = make()
		s.labels = labels
		f.series[labels] = s
	}
	return s
}

// Has reports whether a family named name is registered. Owners of
// get-or-create instruments use it to refuse a registry that another owner
// already fills, since they would otherwise share its counters.
func (r *Registry) Has(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.families[name] != nil
}

// Counter returns the counter named name with the given label key/value
// pairs, creating it on first use. On a nil registry it returns a working
// unregistered counter.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	s := r.get(name, help, typeCounter, kv, func() *series { return &series{counter: &Counter{}} })
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q series is not a plain counter", name))
	}
	return s.counter
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	s := r.get(name, help, typeGauge, kv, func() *series { return &series{gauge: &Gauge{}} })
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q series is not a plain gauge", name))
	}
	return s.gauge
}

// Histogram returns the histogram named name with the given bucket upper
// bounds (nil means DefLatencyBuckets), creating it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	s := r.get(name, help, typeHistogram, kv, func() *series { return &series{hist: newHistogram(buckets)} })
	return s.hist
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time — the bridge for counters that already live elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.get(name, help, typeCounter, kv, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge sampled from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	if r == nil {
		return
	}
	r.get(name, help, typeGauge, kv, func() *series { return &series{fn: fn} })
}

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	})
}
