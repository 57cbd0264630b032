// Server-level observability: registry gauges computed at scrape time,
// the /metrics + /debug/pprof mounts, and structured access logging.
package server

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"

	"github.com/anmat/anmat/internal/obs"
)

// gaugeSrv is the server whose registry backs the process-wide session
// gauges. obs metrics are process-global and GaugeFunc registration is
// last-writer-wins, so the last-constructed Server provides the values —
// matching what tests that build several servers in one process expect
// (each New() rebinds the gauges to the newest registry).
var (
	gaugeMu  sync.Mutex
	gaugeSrv *Server
)

func registerGauges(s *Server) {
	gaugeMu.Lock()
	gaugeSrv = s
	gaugeMu.Unlock()
	obs.Default.NewGaugeFunc("anmat_sessions",
		"Registered sessions in the server's registry.", func() float64 {
			gaugeMu.Lock()
			srv := gaugeSrv
			gaugeMu.Unlock()
			if srv == nil {
				return 0
			}
			srv.mu.RLock()
			defer srv.mu.RUnlock()
			return float64(len(srv.sessions))
		})
	obs.Default.NewGaugeFunc("anmat_session_violations",
		"Violations currently held across all registered sessions.", func() float64 {
			gaugeMu.Lock()
			srv := gaugeSrv
			gaugeMu.Unlock()
			if srv == nil {
				return 0
			}
			srv.mu.RLock()
			handles := make([]*sessionHandle, 0, len(srv.sessions))
			for _, h := range srv.sessions {
				handles = append(handles, h)
			}
			srv.mu.RUnlock()
			n := 0
			for _, h := range handles {
				h.mu.RLock()
				n += len(h.sess.Violations)
				h.mu.RUnlock()
			}
			return float64(n)
		})
}

// SetAccessLog installs a structured request logger (see obs.NewLogger);
// every HTTP request is then logged with its request ID, route, status,
// and latency. Call before Handler().
func (s *Server) SetAccessLog(l *slog.Logger) { s.accessLog = l }

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler() call. Off by default: profiling endpoints expose stacks and
// heap contents, so they are opt-in via the -pprof flag.
func (s *Server) EnablePprof() { s.pprof = true }

// mountObs adds the observability routes to the mux: the Prometheus
// exposition endpoint and, when enabled, the pprof handlers.
func (s *Server) mountObs(mux *http.ServeMux) {
	mux.Handle("GET /metrics", obs.Default.Handler())
	if !s.pprof {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
