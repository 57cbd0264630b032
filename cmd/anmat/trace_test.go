package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/server"
)

// TestTraceTailPrintsOnlySlow runs `anmat trace -slow` against a server
// where one fast and one slow trace land after the tail's first poll:
// the tail prints the slow one and nothing else.
func TestTraceTailPrintsOnlySlow(t *testing.T) {
	obs.Traces.Reset()
	t.Cleanup(func() {
		obs.Traces.Reset()
		obs.SetSlowThreshold(250 * time.Millisecond)
	})
	// endTrace finishes one trace on the given side of the threshold (it
	// is read when the trace ends) and returns its ID.
	endTrace := func(route string, threshold time.Duration) string {
		ctx, end := obs.StartTrace(context.Background(), "http.request")
		obs.SetSpanAttrs(ctx, "route", route)
		obs.SetSlowThreshold(threshold)
		end(nil)
		return obs.TraceIDFrom(ctx)
	}
	h := server.New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
	var mu sync.Mutex
	polls := 0
	var fast, slow string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path != "/api/v1/traces" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if polls++; polls == 1 {
			fast = endTrace("GET /fast", time.Hour)
			slow = endTrace("GET /slow", 0)
			obs.SetSlowThreshold(time.Hour)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- traceTail(ctx, lockedWriter{&mu, &out}, ts.URL, "", 0, 5*time.Millisecond) }()
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		n := polls
		mu.Unlock()
		if n >= 4 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("tail exited early: %v", err)
		case <-deadline:
			t.Fatalf("tail polled %d time(s) in 10s", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], slow) || !strings.Contains(lines[0], "GET /slow") {
		t.Fatalf("tail printed %q, want only the slow trace %s (fast one: %s)", out.String(), slow, fast)
	}
}
