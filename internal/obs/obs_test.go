package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// text renders r.
func text(r *Registry) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// value reads a counter's or gauge's series.
func value(s *series) float64 { return math.Float64frombits(s.bits.Load()) }

// TestCounterGaugeRender pins the scalar exposition lines.
func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A counter.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g := r.NewGauge("test_gauge", "A gauge.")
	g.Set(1.5)
	g.Dec()
	text := text(r)
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"# TYPE test_gauge gauge",
		"test_gauge 0.5",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

// TestLabelEscaping pins backslash, quote, and newline escaping in
// label values — and that the parser inverts it exactly.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("esc_total", "", "path")
	raw := "a\\b\"c\nd"
	v.WithLabelValues(raw).Inc()
	text := text(r)
	want := `esc_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(text, want+"\n") {
		t.Fatalf("escaped line %q not in:\n%s", want, text)
	}
	samples, _, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Labels["path"] != raw {
		t.Fatalf("parse did not invert escaping: %+v", samples)
	}
}

// TestHistogramCumulativity pins the bucket exposition: cumulative
// counts, a +Inf bucket equal to _count, and a correct _sum.
func TestHistogramCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	text := text(r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

// TestHistogramBoundaryValue pins le semantics: a sample exactly on a
// bound lands in that bound's bucket (le is inclusive).
func TestHistogramBoundaryValue(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("b_seconds", "", []float64{1, 2})
	h.Observe(1)
	if !strings.Contains(text(r), `b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary sample not in its le bucket:\n%s", text(r))
	}
}

// TestConcurrentIncrement hammers one counter, one gauge, and one
// histogram from many goroutines; run under -race this also pins the
// registry's concurrency contract.
func TestConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("cc_total", "", "w")
	g := r.NewGauge("cg", "")
	h := r.NewHistogramVec("ch_seconds", "", DurationBuckets, "w")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprint(w % 4)
			for i := 0; i < per; i++ {
				c.WithLabelValues(lbl).Inc()
				g.Add(1)
				h.WithLabelValues(lbl).Observe(0.001)
				// Render concurrently with writes on a slice of iterations.
				if i%251 == 0 {
					_ = text(r)
				}
			}
		}(w)
	}
	wg.Wait()
	samples, _, err := ParseText(text(r))
	if err != nil {
		t.Fatal(err)
	}
	if got := SumSamples(samples, "cc_total", nil); got != workers*per {
		t.Fatalf("counter sum = %v, want %d", got, workers*per)
	}
	if got := value(g.s); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := SumSamples(samples, "ch_seconds_count", nil); got != workers*per {
		t.Fatalf("histogram count sum = %v, want %d", got, workers*per)
	}
}

// TestIdempotentRegistration pins that re-registering a family returns
// handles on the same series, and that a shape change panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("same_total", "x")
	b := r.NewCounter("same_total", "ignored second help")
	a.Inc()
	b.Inc()
	if value(a.s) != 2 {
		t.Fatalf("re-registered counter split series: %v", value(a.s))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type change on re-registration did not panic")
		}
	}()
	r.NewGauge("same_total", "")
}

// TestGaugeFunc pins render-time evaluation and last-writer-wins
// replacement.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 3
	r.NewGaugeFunc("sessions", "", func() float64 { return float64(n) })
	if !strings.Contains(text(r), "sessions 3\n") {
		t.Fatalf("gauge func not rendered:\n%s", text(r))
	}
	r.NewGaugeFunc("sessions", "", func() float64 { return 7 })
	if !strings.Contains(text(r), "sessions 7\n") {
		t.Fatalf("gauge func not replaced:\n%s", text(r))
	}
}

// TestParseRoundTrip renders a registry with every metric kind and
// checks the parse result reproduces each value — the round-trip proof
// that /metrics is valid exposition text.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rt_total", "help with \\ and\nnewline").Add(42)
	r.NewGaugeVec("rt_gauge", "", "shard", "state").WithLabelValues("3", "ok").Set(-1.25)
	h := r.NewHistogramVec("rt_seconds", "", []float64{0.5, 1.5}, "op")
	h.WithLabelValues("append").Observe(1)
	h.WithLabelValues("append").Observe(2)
	text := text(r)
	samples, fams, err := ParseText(text)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	if fams["rt_total"] != "counter" || fams["rt_gauge"] != "gauge" || fams["rt_seconds"] != "histogram" {
		t.Fatalf("family types = %v", fams)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		for _, k := range []string{"shard", "state", "op", "le"} {
			if v, ok := s.Labels[k]; ok {
				key += "|" + k + "=" + v
			}
		}
		byKey[key] = s.Value
	}
	want := map[string]float64{
		"rt_total":                            42,
		"rt_gauge|shard=3|state=ok":           -1.25,
		"rt_seconds_bucket|op=append|le=0.5":  0,
		"rt_seconds_bucket|op=append|le=1.5":  1,
		"rt_seconds_bucket|op=append|le=+Inf": 2,
		"rt_seconds_sum|op=append":            3,
		"rt_seconds_count|op=append":          2,
	}
	for k, v := range want {
		if byKey[k] != v {
			t.Errorf("%s = %v, want %v", k, byKey[k], v)
		}
	}
}

// TestDurationBucketsResolveMicroseconds pins the floor of the shared
// latency bounds: an incremental engine apply takes tens of µs, so a
// histogram of such samples must bracket them between two finite bounds
// instead of reporting everything as "under the first bound".
func TestDurationBucketsResolveMicroseconds(t *testing.T) {
	for i := 1; i < len(DurationBuckets); i++ {
		if DurationBuckets[i] <= DurationBuckets[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, DurationBuckets)
		}
	}
	h := NewRegistry().NewHistogram("apply_seconds", "", DurationBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(30e-6)
	}
	i := slices.Index(DurationBuckets, 50e-6)
	if i < 1 || DurationBuckets[i-1] != 25e-6 {
		t.Fatalf("no (25µs, 50µs] bucket in %v", DurationBuckets)
	}
	if n := h.s.counts[i].Load(); n != 100 {
		t.Fatalf("30µs samples: %d of 100 in the (25µs, 50µs] bucket", n)
	}
}

// TestSeriesCap: a family holds at most maxSeries series; label values
// past the cap share one overflow series labelled "other", while values
// that already own a series keep it.
func TestSeriesCap(t *testing.T) {
	v := NewRegistry().NewCounterVec("anmat_test_total", "", "tenant", "reason")
	for i := 0; i < 1500; i++ {
		v.WithLabelValues(fmt.Sprint("t", i), "rows").Inc()
	}
	if n := len(v.f.series); n != maxSeries {
		t.Fatalf("family holds %d series, want the cap %d", n, maxSeries)
	}
	if got := value(v.WithLabelValues("other", "other").s); got != 1500-(maxSeries-1) {
		t.Fatalf("overflow series = %v, want %d", got, 1500-(maxSeries-1))
	}
	v.WithLabelValues("t0", "rows").Inc()
	if got := value(v.WithLabelValues("t0", "rows").s); got != 2 {
		t.Fatalf("pre-cap series t0 = %v, want 2", got)
	}
}

// TestSpan pins the histogram feed and the slow queue.
func TestSpan(t *testing.T) {
	resetTracing(t)
	SetSlowThreshold(0) // everything is slow
	end := Span(context.Background(), "test.stage")
	time.Sleep(time.Millisecond)
	end()
	found := false
	for _, tr := range Traces.List(TraceFilter{Slow: true}) {
		if tr.Name == "test.stage" && tr.Duration > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("span not in the slow queue at threshold 0")
	}
	samples, _, err := ParseText(text(Default))
	if err != nil {
		t.Fatal(err)
	}
	if SumSamples(samples, "anmat_span_duration_seconds_count", map[string]string{"span": "test.stage"}) < 1 {
		t.Fatal("span histogram did not record")
	}
}

// TestHandlerAndMiddleware drives an instrumented route end to end:
// request counter, latency histogram, request ID header, and a valid
// /metrics payload.
func TestHandlerAndMiddleware(t *testing.T) {
	var logBuf strings.Builder
	logger := NewLogger(&logBuf, "json")
	okHandler := Instrument("GET /ping", httpOK{}, logger)
	srv := httptest.NewServer(okHandler)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(RequestIDHeader); len(rid) != 16 {
		t.Fatalf("request id header = %q", rid)
	}
	if !strings.Contains(logBuf.String(), `"route":"GET /ping"`) || !strings.Contains(logBuf.String(), `"request_id"`) {
		t.Fatalf("structured request log missing fields: %s", logBuf.String())
	}

	ms := httptest.NewServer(Default.Handler())
	defer ms.Close()
	mresp, err := ms.Client().Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	samples, _, err := ParseText(string(raw))
	if err != nil {
		t.Fatalf("/metrics did not round-trip: %v", err)
	}
	if SumSamples(samples, "anmat_http_requests_total",
		map[string]string{"route": "GET /ping", "code": "200"}) < 1 {
		t.Fatal("request counter not visible on /metrics")
	}
}

type httpOK struct{}

func (httpOK) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write([]byte("ok"))
}
