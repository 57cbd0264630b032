// Package obs is the zero-dependency observability substrate: a
// concurrent metrics registry (counters, gauges, histograms, labeled
// families) that renders the Prometheus text exposition format, plus
// lightweight span timing feeding stage-latency histograms and a ring
// of recent slow spans (span.go), and HTTP instrumentation middleware
// with request-ID structured logging (http.go).
//
// Registration is idempotent by metric name: asking for an existing
// family returns the same handles, so independently constructed
// engines, coordinators, and workers in one process share one set of
// process-global series (the Default registry). A name re-registered
// with a different type, label set, or bucket layout panics — that is
// a programming error, not a runtime condition.
//
// Hot-path cost is one atomic op per counter/gauge touch and one
// binary search plus three atomics per histogram observation; handles
// are resolved once (package-level vars at the instrumentation sites),
// so the steady state does no locking and no allocation.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-global registry every layer instruments into;
// /metrics on the server and on shard workers renders it.
var Default = NewRegistry()

// DurationBuckets are the fixed upper bounds (seconds) used by every
// latency histogram: 10µs to 10s, roughly 2.5x apart. The floor sits
// below the fastest thing timed, an engine apply of tens of µs.
var DurationBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the fixed upper bounds (bytes) used by payload-size
// histograms: 256B to 64MiB, 4x apart.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// Registry is a concurrent metric registry. The zero value is not
// usable; see NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a scalar series or a labeled vec.
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64 // histograms only

	mu      sync.RWMutex
	series  map[string]*series // key: label values joined by 0xff
	gaugeFn func() float64     // GaugeFunc families only
}

// series is one (metric, label values) time series. Counter and gauge
// values live in bits as float64 bits; histograms use counts/sum/count.
type series struct {
	labelVals []string
	bits      atomic.Uint64
	counts    []atomic.Uint64 // len(buckets)+1, last is +Inf
	sumBits   atomic.Uint64
	count     atomic.Uint64
}

func (s *series) addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored — counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.s.addFloat(&c.s.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) { g.s.addFloat(&g.s.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram is a fixed-bucket distribution series.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with upper bound >= v
	h.s.counts[i].Add(1)
	h.s.addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// Snapshot returns the per-bucket counts (last entry is +Inf), the sum
// of samples, and the sample count, read non-atomically as a group (an
// in-flight Observe may straddle the read; fine for reporting).
func (h *Histogram) Snapshot() (counts []uint64, sum float64, count uint64) {
	counts = make([]uint64, len(h.s.counts))
	for i := range h.s.counts {
		counts[i] = h.s.counts[i].Load()
	}
	return counts, math.Float64frombits(h.s.sumBits.Load()), h.s.count.Load()
}

// Buckets returns the histogram's upper bounds (excluding +Inf).
func (h *Histogram) Buckets() []float64 { return h.buckets }

// Quantile estimates the q-quantile (0 < q < 1) of the distribution
// described by bucket counts over bounds, by linear interpolation
// within the bucket the quantile falls into — the same estimate
// Prometheus's histogram_quantile computes. Returns NaN when empty.
func Quantile(q float64, bounds []float64, counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(bounds) { // +Inf bucket: clamp to the last finite bound
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (bounds[i]-lo)*frac
		}
	}
	return bounds[len(bounds)-1]
}

// register resolves (creating if needed) a family, enforcing the
// idempotency contract: same name must mean same type, labels, and
// buckets.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	if buckets != nil {
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: metric %q has unsorted buckets", name))
		}
		buckets = append([]float64(nil), buckets...)
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sep joins label values into a series key; 0xff cannot appear in UTF-8
// text, so the join is unambiguous.
const sep = "\xff"

// get resolves (creating if needed) the series for the label values.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, sep)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelVals: append([]string(nil), vals...)}
	if f.typ == "histogram" {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// NewCounter registers (or resolves) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	return &Counter{f.get(nil)}
}

// NewGauge registers (or resolves) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return &Gauge{f.get(nil)}
}

// NewGaugeFunc registers a gauge whose value is computed by fn at
// render time. Re-registering the name replaces the function (last one
// wins — the usual pattern is a freshly constructed component taking
// over reporting from its predecessor in tests). fn must not call back
// into the registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil, nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// NewHistogram registers (or resolves) an unlabeled histogram over the
// given bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, buckets)
	return &Histogram{f.get(nil), f.buckets}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// NewCounterVec registers (or resolves) a counter family with the
// given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels, nil)}
}

// WithLabelValues resolves one series; resolve once and keep the
// handle on hot paths.
func (v *CounterVec) WithLabelValues(vals ...string) *Counter {
	return &Counter{v.f.get(vals)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// NewGaugeVec registers (or resolves) a gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", labels, nil)}
}

// WithLabelValues resolves one series.
func (v *GaugeVec) WithLabelValues(vals ...string) *Gauge {
	return &Gauge{v.f.get(vals)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// NewHistogramVec registers (or resolves) a histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, "histogram", labels, buckets)}
}

// WithLabelValues resolves one series.
func (v *HistogramVec) WithLabelValues(vals ...string) *Histogram {
	return &Histogram{v.f.get(vals), v.f.buckets}
}

// Render writes the registry in the Prometheus text exposition format
// (version 0.0.4), deterministically: families sorted by name, series
// sorted by label values.
func (r *Registry) Render(sb *strings.Builder) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.render(sb)
	}
}

// FamilyInfo describes one registered metric family — the surface the
// naming lint (cmd/obslint) walks.
type FamilyInfo struct {
	Name   string
	Type   string // "counter" | "gauge" | "histogram"
	Labels []string
}

// Families lists the registered families, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{Name: f.name, Type: f.typ, Labels: append([]string(nil), f.labels...)})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Text renders the registry to a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// Handler returns an http.Handler serving the registry as a /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.Render(&sb)
		_, _ = w.Write([]byte(sb.String()))
	})
}

func (f *family) render(sb *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := make([]*series, len(keys))
	for i, k := range keys {
		snap[i] = f.series[k]
	}
	fn := f.gaugeFn
	f.mu.RUnlock()
	if len(snap) == 0 && fn == nil {
		return
	}
	if f.help != "" {
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.help))
		sb.WriteByte('\n')
	}
	sb.WriteString("# TYPE ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(f.typ)
	sb.WriteByte('\n')
	if fn != nil {
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(fn()))
		sb.WriteByte('\n')
		return
	}
	for _, s := range snap {
		switch f.typ {
		case "histogram":
			f.renderHistogram(sb, s)
		default:
			sb.WriteString(f.name)
			writeLabels(sb, f.labels, s.labelVals, "")
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(math.Float64frombits(s.bits.Load())))
			sb.WriteByte('\n')
		}
	}
}

// renderHistogram emits the cumulative _bucket series plus _sum and
// _count.
func (f *family) renderHistogram(sb *strings.Builder, s *series) {
	var cum uint64
	for i := 0; i <= len(f.buckets); i++ {
		cum += s.counts[i].Load()
		le := "+Inf"
		if i < len(f.buckets) {
			le = formatFloat(f.buckets[i])
		}
		sb.WriteString(f.name)
		sb.WriteString("_bucket")
		writeLabels(sb, f.labels, s.labelVals, "le")
		// writeLabels left the brace open for the le label.
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteString(`"} `)
		sb.WriteString(strconv.FormatUint(cum, 10))
		sb.WriteByte('\n')
	}
	sb.WriteString(f.name)
	sb.WriteString("_sum")
	writeLabels(sb, f.labels, s.labelVals, "")
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(math.Float64frombits(s.sumBits.Load())))
	sb.WriteByte('\n')
	sb.WriteString(f.name)
	sb.WriteString("_count")
	writeLabels(sb, f.labels, s.labelVals, "")
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatUint(s.count.Load(), 10))
	sb.WriteByte('\n')
}

// writeLabels emits {k="v",...}. With extra != "" the closing brace is
// left off (and a trailing comma added when other labels precede it) so
// the caller can append one more label; with no labels at all and no
// extra, nothing is emitted.
func writeLabels(sb *strings.Builder, names, vals []string, extra string) {
	if len(names) == 0 && extra == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(vals[i]))
		sb.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		return // caller writes extra label and closes the brace
	}
	sb.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value: integers without an exponent or
// trailing zeros, everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
