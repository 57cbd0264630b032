package obs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/server"
)

// TestSlowRingIsTraceView checks that the slow window an operator reads
// is a view over the trace store: a slow request trace and a slow
// detached span both appear in /api/v1/stats "slow_traces" and in
// /api/v1/traces?slow=1 under their trace IDs, each fetchable as a
// whole tree, while a fast request stays out of both.
func TestSlowRingIsTraceView(t *testing.T) {
	obs.Traces.Reset()
	t.Cleanup(func() {
		obs.Traces.Reset()
		obs.SetSlowThreshold(250 * time.Millisecond)
	})
	h := server.New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
	get := func(path string, out any) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return rec.Header().Get(obs.TraceIDHeader)
	}

	obs.SetSlowThreshold(time.Hour)
	fast := get("/api/v1/sessions", nil)
	obs.SetSlowThreshold(0)
	slow := get("/api/v1/sessions", nil)
	obs.Span(context.Background(), "persist.checkpoint.write")()
	obs.SetSlowThreshold(time.Hour)

	var stats struct {
		SlowTraces []obs.Trace `json:"slow_traces"`
	}
	get("/api/v1/stats", &stats)
	var list struct {
		Traces []obs.Trace `json:"traces"`
	}
	get("/api/v1/traces?slow=1", &list)
	for view, traces := range map[string][]obs.Trace{"slow_traces": stats.SlowTraces, "?slow=1": list.Traces} {
		if len(traces) != 2 {
			t.Fatalf("%s holds %d traces, want 2: %+v", view, len(traces), traces)
		}
		// Most recent first: the detached span, then the request.
		if traces[1].ID != slow || traces[1].Name != "GET /api/v1/sessions" || !traces[1].Slow {
			t.Errorf("%s[1] = %+v, want the slow request %s", view, traces[1], slow)
		}
		if traces[0].Name != "persist.checkpoint.write" || !traces[0].Slow {
			t.Errorf("%s[0] = %+v, want the detached checkpoint span", view, traces[0])
		}
		for _, tr := range traces {
			if tr.ID == fast {
				t.Errorf("%s lists the fast request %s", view, fast)
			}
			if len(tr.Spans) != 0 {
				t.Errorf("%s carries span bodies for %s", view, tr.ID)
			}
		}
	}
	var tree obs.Trace
	get("/api/v1/traces/"+list.Traces[0].ID, &tree)
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "persist.checkpoint.write" {
		t.Errorf("detached span's trace = %+v, want its one span", tree)
	}
}
