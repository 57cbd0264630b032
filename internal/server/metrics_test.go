package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/obs/obstest"
)

// TestMetricsEndpoint exercises the /metrics mount end to end: the
// exposition parses (format round-trip), the per-route request counter
// advanced for a request made through the instrumented mux, and the
// session gauges reflect the loaded registry.
func TestMetricsEndpoint(t *testing.T) {
	srv := newLoadedServer(t)
	h := srv.Handler()

	before := scrapeSum(t, h, "anmat_http_requests_total",
		map[string]string{"route": "GET /api/v1/stats"})
	if rec := get(t, h, "/api/v1/stats"); rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	samples, _, err := obs.ParseText(rec.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	after := obs.SumSamples(samples, "anmat_http_requests_total",
		map[string]string{"route": "GET /api/v1/stats"})
	if after != before+1 {
		t.Errorf("stats route counter = %v, want %v", after, before+1)
	}
	// newLoadedServer registered exactly one session on the gauge-backing
	// server (New rebinds the process gauges to the newest Server).
	if got := obs.SumSamples(samples, "anmat_sessions", nil); got != 1 {
		t.Errorf("anmat_sessions = %v, want 1", got)
	}
	if got := obs.SumSamples(samples, "anmat_session_violations", nil); got <= 0 {
		t.Errorf("anmat_session_violations = %v, want > 0 on a dirty dataset", got)
	}
}

// TestPprofGate pins that /debug/pprof is absent by default and mounted
// after EnablePprof.
func TestPprofGate(t *testing.T) {
	srv := newLoadedServer(t)
	if rec := get(t, srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", rec.Code)
	}
	srv.EnablePprof()
	if rec := get(t, srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof after EnablePprof: status %d, want 200", rec.Code)
	}
}

// scrapeSum fetches /metrics through the handler and sums the named
// family over the matching label subset.
func scrapeSum(t *testing.T, h http.Handler, name string, match map[string]string) float64 {
	t.Helper()
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	samples, _, err := obs.ParseText(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	return obs.SumSamples(samples, name, match)
}

// TestUnknownMethodsAddNoSeries sends invented HTTP methods to every
// route: each is a 405 from the mux, so anmat_http_requests_total
// (labelled by method) gains no series however many a caller makes up.
func TestUnknownMethodsAddNoSeries(t *testing.T) {
	h := newLoadedServer(t).Handler()
	series := func() int {
		samples, _, err := obs.ParseText(obstest.Text())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range samples {
			if s.Name == "anmat_http_requests_total" {
				n++
			}
		}
		return n
	}
	before := series()
	for _, path := range []string{"/api/v1/sessions", "/api/v1/sessions/s1", "/api/v1/sessions/s1/profile",
		"/api/v1/sessions/s1/pfds", "/api/v1/sessions/s1/detection", "/api/v1/sessions/s1/violations",
		"/api/v1/sessions/s1/violations/0", "/api/v1/sessions/s1/repairs", "/api/v1/sessions/s1/repairs/apply",
		"/api/v1/sessions/s1/deltas", "/api/v1/sessions/s1/dmv", "/api/v1/sessions/s1/confirm",
		"/api/v1/sessions/s1/backup", "/api/v1/sessions/restore", "/api/v1/projects", "/api/v1/stats",
		"/api/v1/traces", "/api/v1/traces/x", "/healthz", "/metrics", "/profile", "/pfds", "/violations", "/"} {
		for i := 0; i < 5; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(fmt.Sprintf("BREW%d", i), path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("BREW%d %s = %d, want 405", i, path, rec.Code)
			}
		}
	}
	if after := series(); after != before {
		t.Fatalf("invented methods grew anmat_http_requests_total from %d to %d series", before, after)
	}
}
