// Trace inspection API: list retained traces and fetch one full tree.
// The coordinator's trace store holds the server-side spans; for
// distributed sessions the worker-side segments live in the workers'
// own stores, so the detail endpoint fans a fetch out to every worker
// the server knows about and merges the spans into one tree before
// answering. Both routes are passive — reading traces must not mint
// traces.
package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/obs"
)

// traceFetchTimeout bounds each worker trace fetch: a dead worker must
// not stall the whole tree (its segment is simply missing).
const traceFetchTimeout = 2 * time.Second

// apiTraces lists retained trace summaries, most recent first.
// Filters: ?route= (substring of the root route), ?min_ms= (at least
// this slow), ?limit= (cap the count, default 100), ?slow=1 (only the
// slow-or-errored queue).
func (s *Server) apiTraces(w http.ResponseWriter, r *http.Request) {
	limit, minMS, slow := 100, 0, 0
	if !intParam(w, r, "limit", &limit) || !intParam(w, r, "min_ms", &minMS) || !intParam(w, r, "slow", &slow) {
		return
	}
	list := obs.Traces.List(obs.TraceFilter{
		Route:       r.URL.Query().Get("route"),
		MinDuration: time.Duration(minMS) * time.Millisecond,
		Limit:       limit,
		Slow:        slow > 0,
	})
	writeJSON(w, map[string]any{"count": len(list), "traces": list})
}

// apiTraceDetail returns one trace's full span tree. For distributed
// sessions the worker-side segments (remote-apply handlers and below)
// are fetched from each worker's /shard/v1/trace/{id} endpoint and
// merged in; a worker that does not answer within the fetch timeout
// contributes nothing, and the partial tree is still returned.
func (s *Server) apiTraceDetail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := obs.Traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "trace %s not found (evicted or never seen)", id)
		return
	}
	seen := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		seen[sp.SpanID] = true
	}
	for _, seg := range s.fetchWorkerTraces(r.Context(), id) {
		for _, sp := range seg.Spans {
			if !seen[sp.SpanID] {
				seen[sp.SpanID] = true
				tr.Spans = append(tr.Spans, sp)
			}
		}
	}
	writeJSON(w, tr)
}

// workerURLs snapshots every distributed session's worker endpoints.
func (s *Server) workerURLs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var urls []string
	seen := make(map[string]bool)
	for _, h := range s.sessions {
		for _, u := range h.sess.Workers() {
			if !seen[u] {
				seen[u] = true
				urls = append(urls, u)
			}
		}
	}
	return urls
}

// fetchWorkerTraces asks every known worker for its segment of the
// trace, concurrently, tolerating absence (404s and dead workers yield
// nothing).
func (s *Server) fetchWorkerTraces(ctx context.Context, id string) []obs.Trace {
	urls := s.workerURLs()
	if len(urls) == 0 {
		return nil
	}
	out := make([]obs.Trace, len(urls))
	found := make([]bool, len(urls))
	done := make(chan int, len(urls))
	for i, u := range urls {
		go func(i int, u string) {
			defer func() { done <- i }()
			fctx, cancel := context.WithTimeout(ctx, traceFetchTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(fctx, http.MethodGet, u+cluster.APIPrefix+"/trace/"+id, nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var tr obs.Trace
			if json.NewDecoder(resp.Body).Decode(&tr) == nil {
				out[i], found[i] = tr, true
			}
		}(i, u)
	}
	for range urls {
		<-done
	}
	segs := out[:0]
	for i := range out {
		if found[i] {
			segs = append(segs, out[i])
		}
	}
	return segs
}
