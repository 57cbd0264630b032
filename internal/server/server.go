// Package server is the GUI substitute for Figures 3–5: a net/http JSON
// API plus minimal embedded HTML views over the ANMAT pipeline. The three
// views mirror the demo's screens:
//
//	/            project/dataset selection (Figure 3 header)
//	/profile     pattern listing per column (Figure 3)
//	/pfds        discovered PFD tableaux (Figure 4)
//	/violations  detected violations (Figure 5)
//
// The JSON API is versioned and session-addressable — the demo is
// explicitly multi-user ("new users can create their own projects"), so
// the server keeps a registry of concurrent sessions, each guarded by its
// own lock:
//
//	POST   /api/v1/sessions                 upload a CSV, run the pipeline (?stages= for partial runs)
//	GET    /api/v1/sessions                 list sessions
//	GET    /api/v1/sessions/{id}            one session's summary
//	GET    /api/v1/sessions/{id}/profile    Figure 3 data
//	GET    /api/v1/sessions/{id}/pfds       Figure 4 data
//	GET    /api/v1/sessions/{id}/detection  detection summary + per-rule timing
//	GET    /api/v1/sessions/{id}/violations Figure 5 data (limit/offset; ?since=seq for diffs)
//	GET    /api/v1/sessions/{id}/violations/{i}  one violation, full records
//	GET    /api/v1/sessions/{id}/repairs    suggested fixes
//	POST   /api/v1/sessions/{id}/repairs/apply   apply suggestions as stream deltas
//	POST   /api/v1/sessions/{id}/deltas     batched row deltas, incremental violation diff
//	GET    /api/v1/sessions/{id}/dmv        disguised-missing-value scan
//	POST   /api/v1/sessions/{id}/confirm    confirm rules, re-detect
//	GET    /api/v1/sessions/{id}/backup     stream the session as a tar (snapshot + WAL tail)
//	POST   /api/v1/sessions/restore         import a backup tar as a new session
//	DELETE /api/v1/sessions/{id}            drop the session
//	GET    /api/v1/projects                 project names
//	GET    /api/v1/stats                    server totals + per-session engine/shard stats
//	GET    /healthz                         liveness/readiness probe (never takes session locks)
//
// Detection-dependent reads (the detection summary, violations?since=)
// and delta writes on a session that has never run detection return a
// structured 409 rather than an empty 200, so partial-stage sessions
// (?stages=profile,discovery) are distinguishable from clean ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/wal"
)

// sessionHandle pairs a session with its own lock, so operations on one
// session never block another.
type sessionHandle struct {
	mu   sync.RWMutex
	sess *core.Session
}

// Server wires one core.System and a registry of concurrent sessions to
// HTTP. The registry map has its own lock; each session is guarded
// per-session.
type Server struct {
	sys *core.System

	// pm, when non-nil, is the durability layer: new sessions are
	// checkpointed into it, delta batches journal through it, and deleted
	// sessions are dropped from it. Set via AttachPersist before serving.
	pm *persist.Manager

	mu       sync.RWMutex // guards sessions and claims only
	sessions map[string]*sessionHandle
	claims   map[string]bool // IDs of sessions being built (see claim)

	// start anchors the /healthz and /api/v1/stats uptime reports.
	start time.Time

	// accessLog, when non-nil, receives one structured line per HTTP
	// request (set via SetAccessLog); pprof gates the /debug/pprof
	// mounts (set via EnablePprof). Both must be set before Handler().
	accessLog *slog.Logger
	pprof     bool

	// adm, when non-nil, is per-tenant admission control (quotas and
	// delta rate limits; see admission.go). Set via SetLimits before
	// serving.
	adm *admission
}

// New builds a server over a system and (re)binds the process-wide
// session gauges to it.
func New(sys *core.System) *Server {
	s := &Server{sys: sys, sessions: make(map[string]*sessionHandle), claims: make(map[string]bool), start: time.Now()}
	registerGauges(s)
	return s
}

// AttachPersist makes the registry durable: every session registered from
// now on is checkpointed to m and journals its delta batches into m's
// write-ahead log. Call RestoreSessions first to rehydrate previous state.
func (s *Server) AttachPersist(m *persist.Manager) { s.pm = m }

// SetLimits enables per-tenant admission control (an all-zero Limits
// leaves it off). Call before serving.
func (s *Server) SetLimits(l Limits) {
	if l.enabled() {
		s.adm = newAdmission(l)
	}
}

// RestoreSessions rehydrates the session registry from the durability
// layer: each persisted session is rebuilt from its latest snapshot, its
// WAL tail is replayed through the incremental engine (so violation sets
// and sequence timelines — including clients' `violations?since=` cursors
// — survive the restart), and the session is registered. Returns the
// number of sessions restored.
func (s *Server) RestoreSessions(m *persist.Manager) (int, error) {
	sessions, err := m.Restore(s.sys)
	if err != nil {
		return 0, err
	}
	for _, sess := range sessions {
		s.register(sess.ID, sess)
		if s.adm != nil {
			// Tenancy is not persisted; restored sessions belong to the
			// default tenant and must never be refused by their own
			// server's quotas.
			s.adm.bindSession(DefaultTenant, sess.ID, sess.Table.NumRows())
		}
	}
	return len(sessions), nil
}

// HasTable reports whether any registered session serves a table with
// the given name — used at startup to decide whether a -in dataset was
// already restored from the data directory.
func (s *Server) HasTable(name string) bool {
	s.mu.RLock()
	handles := make([]*sessionHandle, 0, len(s.sessions))
	for _, h := range s.sessions {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	for _, h := range handles {
		h.mu.RLock()
		match := h.sess.Table.Name() == name
		h.mu.RUnlock()
		if match {
			return true
		}
	}
	return false
}

// persistNew attaches the durability layer to a freshly created session
// and writes its first checkpoint. A no-op without an attached manager.
func (s *Server) persistNew(sess *core.Session) error {
	if s.pm == nil {
		return nil
	}
	sess.SetPersist(s.pm)
	return sess.Checkpoint()
}

// CreateSession runs the full pipeline on a new session and registers it.
func (s *Server) CreateSession(ctx context.Context, project string, t *table.Table, p core.Params) (*core.Session, error) {
	sess, err := s.create(ctx, project, t, p, core.FullPipeline())
	if err == nil && s.adm != nil {
		s.adm.bindSession(DefaultTenant, sess.ID, t.NumRows())
	}
	return sess, err
}

// create runs pipeline stages on a new session under a fresh ID it has
// claimed, checkpoints the session and registers it.
func (s *Server) create(ctx context.Context, project string, t *table.Table, p core.Params, stages []core.Stage) (*core.Session, error) {
	sess := s.sys.NewSession(project, t, p)
	for !s.claim(sess.ID) { // a restore claimed it since the system drew it
		sess = s.sys.NewSession(project, t, p)
	}
	err := sess.RunStages(ctx, stages...)
	if err == nil {
		err = s.persistNew(sess)
	}
	if err != nil {
		sess.Close()
		s.unclaim(sess.ID)
		return nil, err
	}
	s.register(sess.ID, sess)
	return sess, nil
}

// claim reserves a session ID before anything is decoded, written or
// dropped under it: false when the ID is live or claimed. The claimer
// then registers the session under the ID, or unclaims it.
func (s *Server) claim(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.sessions[id]; live || s.claims[id] {
		return false
	}
	s.claims[id] = true
	return true
}

// unclaim gives up a claim on id.
func (s *Server) unclaim(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claims, id)
}

// register makes sess live under id, ending the claim on it — or, at
// startup, takes a session the data directory held.
func (s *Server) register(id string, sess *core.Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claims, id)
	s.sessions[id] = &sessionHandle{sess: sess}
}

// Handler returns the HTTP handler with all routes mounted. Every route
// is wrapped with the obs middleware — request counters and latency
// histograms labeled by the registration pattern (Go 1.22-compatible:
// the pattern string is passed explicitly rather than read back from the
// request), plus structured access logging when SetAccessLog was called.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(pattern, h, s.accessLog))
	}
	// Versioned, session-addressable API.
	handle("POST /api/v1/sessions", s.apiCreateSession)
	handle("GET /api/v1/sessions", s.apiListSessions)
	handle("GET /api/v1/sessions/{id}", s.apiSessionSummary)
	handle("DELETE /api/v1/sessions/{id}", s.apiDeleteSession)
	handle("GET /api/v1/sessions/{id}/profile", s.apiProfile)
	handle("GET /api/v1/sessions/{id}/pfds", s.apiPFDs)
	handle("GET /api/v1/sessions/{id}/detection", s.apiDetection)
	handle("GET /api/v1/sessions/{id}/violations", s.apiViolations)
	handle("GET /api/v1/sessions/{id}/violations/{i}", s.apiViolationDetail)
	handle("GET /api/v1/sessions/{id}/repairs", s.apiRepairs)
	handle("POST /api/v1/sessions/{id}/repairs/apply", s.apiApplyRepairs)
	handle("POST /api/v1/sessions/{id}/deltas", s.apiDeltas)
	handle("GET /api/v1/sessions/{id}/dmv", s.apiDMV)
	handle("POST /api/v1/sessions/{id}/confirm", s.apiConfirm)
	// Session portability: tar download + import (see backup.go).
	handle("GET /api/v1/sessions/{id}/backup", s.apiBackup)
	handle("POST /api/v1/sessions/restore", s.apiRestore)
	handle("GET /api/v1/projects", s.apiProjects)
	handle("GET /api/v1/stats", s.apiStats)
	// Trace inspection: passive (reading traces must not mint traces),
	// like the liveness probe below.
	passive := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.InstrumentPassive(pattern, h, s.accessLog))
	}
	passive("GET /api/v1/traces", s.apiTraces)
	passive("GET /api/v1/traces/{id}", s.apiTraceDetail)
	// Liveness/readiness probe for load balancers: cheap, lock-free.
	passive("GET /healthz", s.apiHealthz)
	// Observability: Prometheus exposition + optional pprof.
	s.mountObs(mux)
	// HTML views (?session=id, or the lowest session ID without it).
	handle("GET /profile", s.pageProfile)
	handle("GET /pfds", s.pagePFDs)
	handle("GET /violations", s.pageViolations)
	handle("GET /{$}", s.pageIndex)
	return mux
}

// handle looks a session up by ID; nil when no such session exists.
func (s *Server) handle(id string) *sessionHandle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

// lowestSessionID returns the first session ID in sessionIDBefore order
// ("" when there is none): the session the HTML pages show without a
// ?session= and the "default" the session list reports.
func (s *Server) lowestSessionID() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lowest := ""
	for id := range s.sessions {
		if lowest == "" || sessionIDBefore(id, lowest) {
			lowest = id
		}
	}
	return lowest
}

// requestHandle resolves the session addressed by the request's {id},
// writing a 404 and returning nil when it does not exist.
func (s *Server) requestHandle(w http.ResponseWriter, r *http.Request) *sessionHandle {
	id := r.PathValue("id")
	h := s.handle(id)
	if h == nil {
		writeError(w, http.StatusNotFound, "no such session %s", id)
	}
	return h
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// writeError emits a structured JSON error body with the given status, so
// API clients get a machine-readable reason instead of a plain-text line.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request-body caps: a hostile Content-Length must 413, not OOM. Delta
// bodies get the WAL record bound (a bigger batch could never journal);
// confirm bodies are a list of rule IDs and get a conservative 1 MiB; a
// CSV upload or a backup restore gets 1 GiB, far beyond any session
// admitted.
const (
	maxDeltaBody   = wal.MaxRecord
	maxConfirmBody = 1 << 20
	maxUploadBody  = 1 << 30
)

// bodyStatus maps a request-body decode error to its status: 413 when
// the MaxBytesReader cap tripped, 400 otherwise.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// persistStatus distinguishes durability-layer failures (server-side,
// 500) from rejections of the caller's input: a journaling or checkpoint
// error on a well-formed batch is not the client's fault, and answering
// 400 would invite a resubmit of a batch that may already be applied.
func persistStatus(err error, clientStatus int) int {
	var pe *core.PersistenceError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError
	}
	return clientStatus
}

// conflictNoDetection writes the structured 409 returned when a
// detection-dependent resource is requested (or deltas are posted) before
// any detection has run on the session.
func conflictNoDetection(w http.ResponseWriter, sessionID string) {
	writeError(w, http.StatusConflict,
		"detection has not run on session %s; run the detection stage (POST a full-pipeline session, confirm rules, or include 'detection' in ?stages=) first", sessionID)
}

// stageNames maps the ?stages= vocabulary onto pipeline stages.
var stageNames = map[string]core.Stage{
	string(core.StageProfile):   core.StageProfile,
	string(core.StageDMV):       core.StageDMV,
	string(core.StageDiscovery): core.StageDiscovery,
	string(core.StageConfirm):   core.StageConfirm,
	string(core.StageDetection): core.StageDetection,
	string(core.StageRepairs):   core.StageRepairs,
}

// parseStages resolves the optional ?stages= parameter (comma-separated
// stage names, executed in the given order) to a stage list; an absent
// parameter means the full pipeline. Malformed names write a 400.
func parseStages(w http.ResponseWriter, r *http.Request) ([]core.Stage, bool) {
	raw := r.URL.Query().Get("stages")
	if raw == "" {
		return core.FullPipeline(), true
	}
	var out []core.Stage
	for _, name := range strings.Split(raw, ",") {
		name = strings.TrimSpace(name)
		st, ok := stageNames[name]
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown pipeline stage %q (valid: profile, dmv, discovery, confirm, detection, repairs)", name)
			return nil, false
		}
		out = append(out, st)
	}
	return out, true
}

// floatParam parses an optional ratio query parameter, writing a 400 on
// malformed input or a value outside [0, 1] (second return false).
func floatParam(w http.ResponseWriter, r *http.Request, name string, into *float64) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return true
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed %s=%q: %v", name, v, err)
		return false
	}
	if err := core.CheckRatio(name, f); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	*into = f
	return true
}

// intParam parses an optional non-negative int query parameter, writing a
// 400 on malformed input.
func intParam(w http.ResponseWriter, r *http.Request, name string, into *int) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "malformed %s=%q: want a non-negative integer", name, v)
		return false
	}
	*into = n
	return true
}

// sessionIDBefore orders session IDs by their numeric suffix (s2 before
// s10). Foreign shapes sort after all numeric IDs, by string — keeping
// the comparator a strict weak ordering even when the registry mixes
// both (a numeric-vs-string fallback per pair would be cyclic).
func sessionIDBefore(a, b string) bool {
	na, erra := strconv.Atoi(strings.TrimPrefix(a, "s"))
	nb, errb := strconv.Atoi(strings.TrimPrefix(b, "s"))
	switch {
	case erra == nil && errb == nil:
		return na < nb
	case erra == nil:
		return true
	case errb == nil:
		return false
	default:
		return a < b
	}
}

// paginate slices one page out of a violation list, clamping offset to
// the total (limit 0 = no bound). Returns the page and the clamped offset.
func paginate(xs []pfd.Violation, limit, offset int) ([]pfd.Violation, int) {
	if offset > len(xs) {
		offset = len(xs)
	}
	page := xs[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return page, offset
}

type sessionSummary struct {
	Session    string `json:"session"`
	Project    string `json:"project"`
	Table      string `json:"table"`
	Rows       int    `json:"rows"`
	PFDs       int    `json:"pfds"`
	Violations int    `json:"violations"`
	Repairs    int    `json:"repairs"`
	// Persistence reports the session's durability state (checkpoint
	// cursor, journaled batches pending compaction); nil when the server
	// runs without a data directory.
	Persistence *persist.Status `json:"persistence,omitempty"`
}

// summarize reports one session. Its repair count describes the current
// table, so a session that took deltas since its repairs were derived
// re-derives them first (hence the write lock).
func (s *Server) summarize(ctx context.Context, h *sessionHandle) (sessionSummary, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	se := h.sess
	repairs, err := se.CurrentRepairs(ctx)
	if err != nil {
		return sessionSummary{}, err
	}
	sum := sessionSummary{
		Session:    se.ID,
		Project:    se.Project,
		Table:      se.Table.Name(),
		Rows:       se.Table.NumRows(),
		PFDs:       len(se.Discovered),
		Violations: len(se.Violations),
		Repairs:    len(repairs),
	}
	if s.pm != nil {
		if st, ok := s.pm.Status(se.ID); ok {
			sum.Persistence = &st
		}
	}
	return sum, nil
}

func (s *Server) apiProjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"projects": s.sys.Projects()})
}

// apiHealthz is the load-balancer probe: it reports liveness without
// touching the session registry's per-session locks, so a session stuck
// in a long pipeline run can never fail the health check.
func (s *Server) apiHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	writeJSON(w, map[string]any{
		"status":    "ok",
		"uptime_s":  time.Since(s.start).Seconds(),
		"sessions":  n,
		"max_procs": runtime.GOMAXPROCS(0),
	})
}

// sessionStats is one session's entry in the /api/v1/stats report.
type sessionStats struct {
	Session    string           `json:"session"`
	Table      string           `json:"table"`
	Rows       int              `json:"rows"`
	Violations int              `json:"violations"`
	Detected   bool             `json:"detected"`
	Engine     core.EngineStats `json:"engine"`
}

// apiStats reports server totals plus per-session incremental-engine
// state — including per-shard row/violation/block counts for sharded
// sessions, so operators can watch hot-shard imbalance, and for
// distributed ones each worker's applied-batch and redelivery counts (an
// unreachable or poisoned worker shows as its shard's error). Engines are
// reported as they are; a session whose engine is not built yet shows
// kind "none" (stats never force an expensive bootstrap).
func (s *Server) apiStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	handles := make([]*sessionHandle, 0, len(s.sessions))
	for _, h := range s.sessions {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	out := make([]sessionStats, 0, len(handles))
	for _, h := range handles {
		h.mu.RLock()
		se := h.sess
		out = append(out, sessionStats{
			Session:    se.ID,
			Table:      se.Table.Name(),
			Rows:       se.Table.NumRows(),
			Violations: len(se.Violations),
			Detected:   se.DetectionRan(),
			Engine:     se.EngineStats(),
		})
		h.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return sessionIDBefore(out[i].Session, out[j].Session) })
	writeJSON(w, map[string]any{
		"uptime_s":    time.Since(s.start).Seconds(),
		"sessions":    len(out),
		"max_procs":   runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"per_session": out,
		"slow_traces": obs.Traces.List(obs.TraceFilter{Slow: true}),
	})
}

// apiCreateSession accepts a CSV body (?project=&name=&coverage=&violations=),
// runs the pipeline under the request context, and registers the session —
// the demo's "upload the datasets that need to be processed".
func (s *Server) apiCreateSession(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "uploaded"
	}
	project := r.URL.Query().Get("project")
	if project == "" {
		project = "default"
	}
	params := s.sys.Defaults()
	if !floatParam(w, r, "coverage", &params.MinCoverage) ||
		!floatParam(w, r, "violations", &params.AllowedViolations) {
		return
	}
	stages, ok := parseStages(w, r)
	if !ok {
		return
	}
	if r.ContentLength > maxUploadBody {
		writeError(w, http.StatusRequestEntityTooLarge, "upload of %d bytes exceeds %d", r.ContentLength, maxUploadBody)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBody)
	tenant := requestTenant(r)
	// Past the tenant's row budget the upload is refused whatever follows,
	// so the reader stops one row beyond it.
	left, maxRows := -1, -1
	if s.adm != nil {
		if left = s.adm.rowsLeft(tenant); left >= 0 {
			maxRows = left + 1
		}
	}
	t, err := table.ReadCSVRows(name, r.Body, maxRows)
	if err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if t.NumRows() == maxRows {
		// The reader stopped at the cap, so t is only the head of the
		// upload: refuse it even if rows were freed while it streamed.
		writeAdmissionReject(w, tenant, s.adm.rowsOver(left))
		return
	}
	if s.adm != nil {
		// Reserve before the (expensive) pipeline run, so an over-quota
		// tenant cannot burn server CPU on uploads that would only be
		// rejected afterwards.
		if rej := s.adm.reserveSession(tenant, t.NumRows()); rej != nil {
			writeAdmissionReject(w, tenant, rej)
			return
		}
	}
	sess, err := s.create(r.Context(), project, t, params, stages)
	if err != nil {
		// The session is never registered: take back the reservation.
		if s.adm != nil {
			s.adm.unreserveSession(tenant, t.NumRows())
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.adm != nil {
		s.adm.bindReserved(tenant, sess.ID, t.NumRows())
	}
	writeJSON(w, map[string]any{
		"session":    sess.ID,
		"table":      t.Name(),
		"rows":       t.NumRows(),
		"pfds":       len(sess.Discovered),
		"violations": len(sess.Violations),
	})
}

func (s *Server) apiListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	handles := make([]*sessionHandle, 0, len(s.sessions))
	for _, h := range s.sessions {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	out := make([]sessionSummary, 0, len(handles))
	for _, h := range handles {
		sum, err := s.summarize(r.Context(), h)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return sessionIDBefore(out[i].Session, out[j].Session) })
	// "default" is the session the HTML pages show without ?session=.
	defaultID := ""
	if len(out) > 0 {
		defaultID = out[0].Session
	}
	writeJSON(w, map[string]any{"sessions": out, "default": defaultID})
}

func (s *Server) apiSessionSummary(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	sum, err := s.summarize(r.Context(), h)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, sum)
}

func (s *Server) apiDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	h, ok := s.sessions[id]
	if ok {
		// Claimed until its files are dropped: a restore of the ID in the
		// meantime is a 409, not a checkpoint the drop deletes.
		delete(s.sessions, id)
		s.claims[id] = true
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such session %s", id)
		return
	}
	defer s.unclaim(id)
	if s.adm != nil {
		s.adm.release(id)
	}
	// Drain in-flight requests that resolved the handle before it left the
	// registry, then detach the persister, so nothing can journal for the
	// session again (recreating the WAL file) after the Drop below, and
	// close the session, which frees the workers for another one.
	h.mu.Lock()
	h.sess.SetPersist(nil)
	h.sess.Close()
	h.mu.Unlock()
	if s.pm != nil {
		if err := s.pm.Drop(id); err != nil {
			writeError(w, http.StatusInternalServerError, "session deleted but persisted state not dropped: %v", err)
			return
		}
	}
	writeJSON(w, map[string]any{"deleted": id})
}

func (s *Server) apiProfile(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	type colView struct {
		Name     string                   `json:"name"`
		Type     string                   `json:"type"`
		Distinct int                      `json:"distinct"`
		Patterns []profile.PatternSummary `json:"patterns"`
	}
	out := struct {
		Session string    `json:"session"`
		Table   string    `json:"table"`
		Rows    int       `json:"rows"`
		Columns []colView `json:"columns"`
	}{Session: sess.ID, Table: sess.Table.Name(), Rows: sess.Table.NumRows()}
	for i, cp := range sess.Profile.Columns {
		out.Columns = append(out.Columns, colView{
			Name:     cp.Name,
			Type:     cp.Type.String(),
			Distinct: cp.Distinct,
			Patterns: profile.ColumnPatterns(sess.Table.InternedColumn(i)),
		})
	}
	writeJSON(w, out)
}

func (s *Server) apiPFDs(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	writeJSON(w, map[string]any{"session": h.sess.ID, "pfds": h.sess.Discovered})
}

// ruleStatView is the JSON shape of one rule's detection cost.
type ruleStatView struct {
	PFD        string  `json:"pfd"`
	Rows       int     `json:"rows"`
	Violations int     `json:"violations"`
	DurationNS int64   `json:"duration_ns"`
	DurationMS float64 `json:"duration_ms"`
}

// apiDetection summarizes the session's last detection run: total
// violation count plus per-rule timing stats (tableau rows evaluated,
// violations contributed, cumulative wall time of the rule's row tasks).
func (s *Server) apiDetection(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	if !sess.DetectionRan() {
		conflictNoDetection(w, sess.ID)
		return
	}
	stats := make([]ruleStatView, 0, len(sess.DetectStats))
	for _, st := range sess.DetectStats {
		stats = append(stats, ruleStatView{
			PFD:        st.PFDID,
			Rows:       st.Rows,
			Violations: st.Violations,
			DurationNS: st.Duration.Nanoseconds(),
			DurationMS: float64(st.Duration.Microseconds()) / 1000,
		})
	}
	payload := map[string]any{
		"session":    sess.ID,
		"rules":      len(sess.DetectStats),
		"violations": len(sess.Violations),
		"stats":      stats,
		"shards":     sess.Shards(),
		"engine":     sess.EngineStats(),
	}
	if w := sess.Workers(); len(w) > 0 {
		// Distributed mode: surface the worker topology so operators can
		// line per-shard stats up with the processes serving them.
		payload["workers"] = w
	}
	writeJSON(w, payload)
}

// apiViolations pages through the detected violations: ?limit= bounds the
// page size (0 = all), ?offset= skips, and the total count is always
// returned so clients can iterate. With ?since=<seq> the response is a
// violation diff against the incremental engine's sequence cursor
// instead of a snapshot (see apiViolationDiff).
func (s *Server) apiViolations(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	limit, offset := 0, 0
	if !intParam(w, r, "limit", &limit) || !intParam(w, r, "offset", &offset) {
		return
	}
	if raw := r.URL.Query().Get("since"); raw != "" {
		since, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || since < 0 {
			writeError(w, http.StatusBadRequest, "malformed since=%q: want a non-negative integer sequence number", raw)
			return
		}
		s.violationDiff(w, h, since, limit, offset)
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	writeViolationPage(w, h.sess.ID, h.sess.Violations, limit, offset)
}

// violationDiff serves GET violations?since=<seq>: the net violation
// change between the cursor and the engine's current sequence number,
// maintained incrementally (never recomputed from scratch). Requires
// detection to have run (409 otherwise); a cursor older than the
// retained diff log yields a full snapshot with reset=true.
func (s *Server) violationDiff(w http.ResponseWriter, h *sessionHandle, since int64, limit, offset int) {
	// Write lock: resolving the stream handle may build the engine.
	h.mu.Lock()
	defer h.mu.Unlock()
	sess := h.sess
	if !sess.DetectionRan() {
		conflictNoDetection(w, sess.ID)
		return
	}
	eng, err := sess.Stream()
	if err != nil {
		writeError(w, persistStatus(err, http.StatusConflict), "%v", err)
		return
	}
	diff, err := eng.Since(since)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeDiff(w, sess.ID, diff, limit, offset)
}

// apiDeltas applies one batched, validated delta batch to the session
// through the incremental engine and returns the paginated violation
// diff. Body: {"deltas": [{"op":"append","rows":[[...]]},
// {"op":"update","row":3,"column":"state","value":"FL"},
// {"op":"delete","drop":[5,6]}]}. The batch is atomic: a validation
// error applies nothing and returns a 400. Requires detection to have
// run on the session (409 otherwise).
func (s *Server) apiDeltas(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	limit, offset := 0, 0
	if !intParam(w, r, "limit", &limit) || !intParam(w, r, "offset", &offset) {
		return
	}
	var body struct {
		Deltas stream.Batch `json:"deltas"`
	}
	// A delta batch becomes one WAL record, so anything beyond the WAL
	// record bound could never be journaled anyway; reject it before it
	// allocates, with a 413 instead of an OOM.
	r.Body = http.MaxBytesReader(w, r.Body, maxDeltaBody)
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, bodyStatus(err), "malformed delta body: %v", err)
		return
	}
	if len(body.Deltas) == 0 {
		writeError(w, http.StatusBadRequest, "empty delta batch")
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sess := h.sess
	if !sess.DetectionRan() {
		conflictNoDetection(w, sess.ID)
		return
	}
	if s.adm != nil {
		tenant, rej := s.adm.admitDeltas(sess.ID, rowGrowth(body.Deltas))
		if rej != nil {
			writeAdmissionReject(w, tenant, rej)
			return
		}
	}
	diff, err := sess.ApplyDeltasCtx(r.Context(), body.Deltas)
	if s.adm != nil {
		// Settle to the observed table size whatever happened: a rejected
		// batch returns its reservation, deletes credit rows back.
		s.adm.settleRows(sess.ID, sess.Table.NumRows())
	}
	if err != nil {
		if diff != nil {
			// The batch WAS applied and journaled; only the follow-up
			// compaction checkpoint failed. Tell the client not to
			// resubmit — recovery replays the batch from the WAL.
			writeError(w, http.StatusInternalServerError,
				"deltas applied (seq %d) but checkpoint failed — do not resubmit; resync with violations?since=: %v", diff.Seq, err)
			return
		}
		if errors.Is(err, stream.ErrNotApplied) {
			// Valid and maybe journaled, but the engine failed applying it
			// and refuses further batches until the session rebuilds it.
			writeError(w, http.StatusInternalServerError,
				"deltas not applied — do not resubmit blindly; resync with violations?since=: %v", err)
			return
		}
		writeError(w, persistStatus(err, http.StatusBadRequest), "%v", err)
		return
	}
	writeDiff(w, sess.ID, diff, limit, offset)
}

// apiApplyRepairs re-derives repair suggestions against the current
// table (stored sess.Repairs may predate delta batches that renumbered
// rows), writes them as cell deltas routed through the incremental
// engine — so the violation diff of the repair comes back without a
// re-detection — and finally refreshes the remaining suggestions.
func (s *Server) apiApplyRepairs(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sess := h.sess
	if !sess.DetectionRan() {
		conflictNoDetection(w, sess.ID)
		return
	}
	fresh, err := sess.RunRepairs(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	changed, diff, err := sess.ApplyRepairs(r.Context(), fresh)
	if errors.Is(err, core.ErrNoRules) {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if _, err := sess.RunRepairs(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"session":    sess.ID,
		"changed":    changed,
		"seq":        diff.Seq,
		"violations": len(sess.Violations),
		"repairs":    len(sess.Repairs),
		"added":      len(diff.Added),
		"removed":    len(diff.Removed),
	})
}

// apiRepairs serves the repair suggestions for the session's current
// table, re-deriving them first when deltas changed it since they were
// computed (hence the write lock).
func (s *Server) apiRepairs(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	repairs, err := h.sess.CurrentRepairs(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"session": h.sess.ID, "repairs": repairs})
}

// apiConfirm marks a subset of discovered PFDs as user-validated and
// re-runs detection and repair over just those (the demo flow: "based on
// the confirmed dependencies, Anmat will run them through the
// corresponding columns"). Body: {"ids": ["table:a->b", …]}; an empty or
// missing list confirms everything.
func (s *Server) apiConfirm(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	var body struct {
		IDs []string `json:"ids"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxConfirmBody)
	// An empty body is a legal "confirm everything"; errors.Is (not a
	// string compare) so an EOF wrapped by a body middleware still
	// counts as empty.
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sess := h.sess
	// Confirm rebuilds Confirmed in place, so the rollback copies it.
	var prevConfirmed []*pfd.PFD
	if sess.Confirmed != nil {
		prevConfirmed = append([]*pfd.PFD{}, sess.Confirmed...)
	}
	confirmed := sess.Confirm(body.IDs...)
	if len(body.IDs) > 0 && len(confirmed) == 0 {
		sess.Confirmed = prevConfirmed
		writeError(w, http.StatusBadRequest, "no discovered PFD matches the given ids")
		return
	}
	// Detection boots the engine over the new rule set and checkpoints
	// its baseline, or leaves the session as it was: then (e.g. a client
	// disconnect) the rule set goes back too.
	if err := sess.RunStages(r.Context(), core.StageDetection, core.StageRepairs); err != nil {
		if !sess.DetectionCurrent() {
			sess.Confirmed = prevConfirmed
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ids := make([]string, len(confirmed))
	for i, p := range confirmed {
		ids[i] = p.ID()
	}
	writeJSON(w, map[string]any{
		"session":    sess.ID,
		"confirmed":  ids,
		"violations": len(sess.Violations),
		"repairs":    len(sess.Repairs),
	})
}

// apiDMV scans for disguised missing values on demand.
func (s *Server) apiDMV(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	writeJSON(w, map[string]any{"session": h.sess.ID, "findings": h.sess.RunDMV()})
}

// apiViolationDetail returns one violation with the full violating
// records (the Figure 5 drill-down: "display … the full violating
// records to have more insights"). The index comes from the {i} path
// value.
func (s *Server) apiViolationDetail(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed violation index %q", r.PathValue("i"))
		return
	}
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	if idx < 0 || idx >= len(sess.Violations) {
		writeError(w, http.StatusNotFound, "violation index out of range")
		return
	}
	v := sess.Violations[idx]
	type record struct {
		Row   int               `json:"row"`
		Cells map[string]string `json:"cells"`
	}
	var records []record
	for _, tu := range v.Tuples {
		cells := make(map[string]string, sess.Table.NumCols())
		for ci, col := range sess.Table.Columns() {
			cells[col] = sess.Table.Cell(tu, ci)
		}
		records = append(records, record{Row: tu, Cells: cells})
	}
	writeJSON(w, map[string]any{"violation": v, "records": records})
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>ANMAT — {{.Title}}</title>
<style>
body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:4px 8px}th{background:#eee}
nav a{margin-right:1em}
</style></head><body>
<nav><a href="/">Home</a><a href="/profile">Profile</a><a href="/pfds">PFDs</a><a href="/violations">Violations</a></nav>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>`))

type page struct {
	Title string
	Body  template.HTML
}

func (s *Server) render(w http.ResponseWriter, p page) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = pageTmpl.Execute(w, p)
}

// pageSession resolves the session for an HTML view — ?session=id, or the
// lowest session ID without it — without writing a 404 (the pages render
// a placeholder instead).
func (s *Server) pageSession(r *http.Request) *sessionHandle {
	id := r.URL.Query().Get("session")
	if id == "" {
		id = s.lowestSessionID()
	}
	return s.handle(id)
}

func (s *Server) pageIndex(w http.ResponseWriter, r *http.Request) {
	h := s.pageSession(r)
	body := "<p>No dataset loaded. POST a CSV to /api/v1/sessions.</p>"
	if h != nil {
		sum, err := s.summarize(r.Context(), h)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		body = fmt.Sprintf("<p>Session <b>%s</b>, project <b>%s</b>, dataset <b>%s</b>: %d rows, %d PFDs, %d violations.</p>",
			template.HTMLEscapeString(sum.Session),
			template.HTMLEscapeString(sum.Project),
			template.HTMLEscapeString(sum.Table),
			sum.Rows, sum.PFDs, sum.Violations)
	}
	s.render(w, page{Title: "ANMAT", Body: template.HTML(body)})
}

func (s *Server) pageProfile(w http.ResponseWriter, r *http.Request) {
	h := s.pageSession(r)
	if h == nil {
		s.render(w, page{Title: "Profile", Body: "<p>No dataset loaded.</p>"})
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	body := "<table><tr><th>Column</th><th>Type</th><th>Distinct</th><th>Patterns (pattern::position, frequency)</th></tr>"
	for i, cp := range sess.Profile.Columns {
		pats := profile.ColumnPatterns(sess.Table.InternedColumn(i))
		cell := ""
		for j, ps := range pats {
			if j >= 5 {
				cell += "…"
				break
			}
			cell += fmt.Sprintf("%s::%d, %d<br>", template.HTMLEscapeString(ps.Pattern), ps.Position, ps.Frequency)
		}
		body += fmt.Sprintf("<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>",
			template.HTMLEscapeString(cp.Name), cp.Type, cp.Distinct, cell)
	}
	body += "</table>"
	s.render(w, page{Title: "Profiling — patterns in the data", Body: template.HTML(body)})
}

func (s *Server) pagePFDs(w http.ResponseWriter, r *http.Request) {
	h := s.pageSession(r)
	if h == nil {
		s.render(w, page{Title: "PFDs", Body: "<p>No dataset loaded.</p>"})
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	body := ""
	for _, p := range sess.Discovered {
		body += fmt.Sprintf("<h3>%s → %s (coverage %.1f%%)</h3><table><tr><th>Pattern</th><th>RHS</th><th>Support</th></tr>",
			template.HTMLEscapeString(p.LHS), template.HTMLEscapeString(p.RHS), p.Coverage*100)
		for _, row := range p.Tableau.Rows() {
			body += fmt.Sprintf("<tr><td>%s</td><td>%s</td><td>%d</td></tr>",
				template.HTMLEscapeString(row.LHS.String()),
				template.HTMLEscapeString(row.RHS), row.Support)
		}
		body += "</table>"
	}
	if body == "" {
		body = "<p>No PFDs discovered.</p>"
	}
	s.render(w, page{Title: "Discovered PFDs", Body: template.HTML(body)})
}

func (s *Server) pageViolations(w http.ResponseWriter, r *http.Request) {
	h := s.pageSession(r)
	if h == nil {
		s.render(w, page{Title: "Violations", Body: "<p>No dataset loaded.</p>"})
		return
	}
	limit, offset := 200, 0
	if !intParam(w, r, "limit", &limit) || !intParam(w, r, "offset", &offset) {
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sess := h.sess
	total := len(sess.Violations)
	pageVs, offset := paginate(sess.Violations, limit, offset)
	body := fmt.Sprintf("<p>Showing %d–%d of %d violation(s).</p><table><tr><th>Rule</th><th>Cells</th><th>Observed</th><th>Expected</th></tr>",
		offset, offset+len(pageVs), total)
	for _, v := range pageVs {
		body += fmt.Sprintf("<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			template.HTMLEscapeString(v.Row),
			template.HTMLEscapeString(cellList(v)),
			template.HTMLEscapeString(v.Observed),
			template.HTMLEscapeString(v.Expected))
	}
	body += "</table>"
	if next := offset + len(pageVs); next < total {
		link := fmt.Sprintf("/violations?offset=%d&limit=%d", next, limit)
		if sid := r.URL.Query().Get("session"); sid != "" {
			link += "&session=" + template.URLQueryEscaper(sid)
		}
		body += fmt.Sprintf(`<p><a href="%s">next page</a></p>`, link)
	}
	s.render(w, page{Title: "Detected errors", Body: template.HTML(body)})
}

func cellList(v pfd.Violation) string {
	out := ""
	for i, c := range v.Cells {
		if i > 0 {
			out += " "
		}
		out += c.String()
	}
	return out
}
