// The shard worker: one shard.LocalNode behind the /shard/v1 HTTP API.
// A worker boots empty and inert; the coordinator pushes its state over
// /init (at start, or to a spare on failover), then drives it with
// translated batches. Batches are idempotent by sequence number — the
// worker caches the last applied batch's response and replays it on
// redelivery, so a coordinator whose request timed out after the worker
// applied it can retry blindly without double-applying.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/wal"
)

// maxBootBody caps an /init body: a full shard snapshot plus its WAL
// tail, bounded at 4x the single-record limit.
const maxBootBody = 4 * wal.MaxRecord

// bodyStatus maps a request-body decode error to 413 when the
// MaxBytesReader cap tripped, 400 otherwise.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Worker serves one shard over HTTP. The zero value is not usable; see
// NewWorker. All handlers serialize on an internal lock — a worker is
// driven by a single coordinator, so there is no concurrency to win.
type Worker struct {
	mu sync.Mutex
	// shardID/of pin the worker to one topology slot when >= 0: an init
	// for a different slot is refused, catching miswired coordinators.
	shardID, of int
	node        *shard.LocalNode
	// curShard/curOf record the slot the live node was booted for (equal
	// to shardID/of when pinned).
	curShard, curOf int
	// epoch is the coordinator identity the live state was booted under;
	// requests fenced against it (see the proto.go epoch-fencing section).
	epoch string
	seq   int64
	// last is the cached response of the batch that advanced the worker
	// to seq, replayed on idempotent redelivery.
	last *ApplyResponse
	// applied and redelivered count, since the live state was booted, the
	// batches the engine applied and the redeliveries answered from last;
	// /shard/v1/stats reports them.
	applied, redelivered int64
	// poisoned marks a booted state discarded after a failed apply: the
	// worker answers 412 until the next /init, and /healthz says so.
	poisoned bool
	logf     func(format string, args ...any)
	// access, when set, instruments the HTTP handler with request
	// metrics and structured request logging (see SetAccessLog).
	access *slog.Logger
}

// NewWorker returns a worker pinned to shard shardID of of; pass -1, -1
// to accept any slot from the first init.
func NewWorker(shardID, of int) *Worker {
	return &Worker{shardID: shardID, of: of, logf: log.Printf}
}

// SetLogf redirects the worker's request log (default log.Printf; nil
// silences it).
func (w *Worker) SetLogf(fn func(format string, args ...any)) {
	if fn == nil {
		fn = func(string, ...any) {}
	}
	w.logf = fn
}

// SetAccessLog enables structured per-request logging (with request
// IDs) on the worker's HTTP handler. Call before Handler.
func (w *Worker) SetAccessLog(l *slog.Logger) { w.access = l }

// Handler returns the worker's HTTP handler: the /shard/v1 API plus the
// top-level /healthz probe and the worker's own /metrics endpoint. Every
// route names its method, so a request with any other method is a 405
// from the mux and never reaches the instrumentation; every route is
// instrumented with request counters and latency histograms (and request
// logging when SetAccessLog was called).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(pattern, h, w.access))
	}
	handle("POST "+APIPrefix+"/init", w.handleInit)
	handle("POST "+APIPrefix+"/apply", w.handleApply)
	handle("GET "+APIPrefix+"/violations", w.handleViolations)
	handle("GET "+APIPrefix+"/stats", w.handleStats)
	// Observability routes stay passive: probes and trace reads must not
	// mint traces of their own (steady polling would churn the store).
	passive := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.InstrumentPassive(pattern, h, w.access))
	}
	passive("GET "+APIPrefix+"/trace/{id}", w.handleTrace)
	passive("GET /healthz", w.handleHealthz)
	mux.Handle("GET /metrics", obs.Default.Handler())
	return mux
}

// handleTrace serves the worker-retained segment of one trace: the spans
// this process recorded under a coordinator-supplied traceparent. The
// coordinator's trace API fetches these to merge the full tree.
func (w *Worker) handleTrace(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := obs.Traces.Get(id)
	if !ok {
		writeError(rw, http.StatusNotFound, "trace %s not found", id)
		return
	}
	writeJSON(rw, http.StatusOK, tr)
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(rw, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleInit initializes or replaces the worker's shard state: a
// coordinator booting its shards, or failing a dead one over to this
// spare.
func (w *Worker) handleInit(rw http.ResponseWriter, r *http.Request) {
	var req BootRequest
	// A boot body carries a full shard snapshot, so it gets a generous
	// cap — but still a cap: an unbounded hostile body must 413, not OOM
	// the worker.
	r.Body = http.MaxBytesReader(rw, r.Body, maxBootBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(rw, bodyStatus(err), "decode boot: %v", err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.shardID >= 0 && (req.Boot.Shard != w.shardID || req.Boot.Of != w.of) {
		writeError(rw, http.StatusConflict, "worker pinned to shard %d/%d, boot is for %d/%d",
			w.shardID, w.of, req.Boot.Shard, req.Boot.Of)
		return
	}
	node, err := shard.NewLocalNode(req.Boot, req.Rules)
	if err != nil {
		writeError(rw, http.StatusBadRequest, "boot: %v", err)
		return
	}
	if w.epoch != "" && req.Epoch != w.epoch {
		// Ownership transfer: a boot under a new epoch replaces the state
		// and fences the previous coordinator out (its applies 409 from
		// here on instead of silently mutating the new owner's state).
		w.logf("worker shard %d/%d: epoch %q takes over from %q", req.Boot.Shard, req.Boot.Of, req.Epoch, w.epoch)
	}
	w.node, w.seq, w.last = node, req.Seq, nil
	w.curShard, w.curOf, w.epoch = req.Boot.Shard, req.Boot.Of, req.Epoch
	w.applied, w.redelivered, w.poisoned = 0, 0, false
	workerPoisoned.WithLabelValues(strconv.Itoa(w.curShard)).Set(0)
	workerBoots.Inc()
	w.logf("worker shard %d/%d: booted %d rows at seq %d",
		req.Boot.Shard, req.Boot.Of, len(req.Boot.Rows), req.Seq)
	writeJSON(rw, http.StatusOK, w.stateLocked())
}

// checkEpochLocked fences a request against the epoch the live state was
// booted under, writing a 409 (permanent at the client) on conflict.
// Strict mode — applies, which mutate — also rejects a missing header;
// lenient mode — reads — lets header-less operator requests through.
// Callers hold w.mu; reports whether the request may proceed.
func (w *Worker) checkEpochLocked(rw http.ResponseWriter, r *http.Request, strict bool) bool {
	got := r.Header.Get(EpochHeader)
	if w.epoch == "" || got == w.epoch || (got == "" && !strict) {
		return true
	}
	epochFences.Inc()
	writeError(rw, http.StatusConflict, "worker claimed by epoch %q, request carries %q — its coordinator was superseded", w.epoch, got)
	return false
}

// handleApply applies one translated batch, idempotently by sequence
// number: redelivery of the last applied batch replays the cached
// response without touching the engine; anything else out of order is a
// 409 the coordinator must not retry.
func (w *Worker) handleApply(rw http.ResponseWriter, r *http.Request) {
	var nb shard.NodeBatch
	// One translated batch can never legitimately exceed the WAL record
	// bound the coordinator journals it under.
	r.Body = http.MaxBytesReader(rw, r.Body, wal.MaxRecord)
	if err := json.NewDecoder(r.Body).Decode(&nb); err != nil {
		writeError(rw, bodyStatus(err), "decode batch: %v", err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.checkEpochLocked(rw, r, true) || !w.readyLocked(rw) {
		return
	}
	// The coordinator only sends batches that touch this shard, so the
	// worker's sequence is sparse in the global timeline: any seq above
	// the current one is the next batch. At or below it is a redelivery —
	// the last applied batch replays from cache (a retry after a lost
	// response), anything older is a conflict the client must not retry.
	switch {
	case nb.Seq == w.seq && w.last != nil:
		w.redelivered++
		workerRedeliveries.WithLabelValues(strconv.Itoa(w.curShard)).Inc()
		w.logf("worker shard %d/%d: redelivery of batch %d, replaying cached response", w.curShard, w.curOf, nb.Seq)
		writeJSON(rw, http.StatusOK, w.last)
		return
	case nb.Seq <= w.seq:
		writeError(rw, http.StatusConflict, "batch seq %d not after worker seq %d", nb.Seq, w.seq)
		return
	}
	obs.SetSpanAttrs(r.Context(),
		"shard", strconv.Itoa(w.curShard),
		"seq", strconv.FormatInt(nb.Seq, 10))
	t0 := time.Now()
	diffs, err := w.node.Apply(r.Context(), nb)
	shardLbl := strconv.Itoa(w.curShard)
	workerApplyDur.WithLabelValues(shardLbl).Observe(time.Since(t0).Seconds())
	if err != nil {
		// LocalNode.Apply mutates op by op, so an error on op i leaves ops
		// 0..i-1 applied — and the 500 below is retryable at the client, so
		// a blind redelivery would re-apply the whole batch onto that
		// half-mutated state. Poison the node: every later call answers 412
		// (permanent) until an /init re-boots it, sending the coordinator
		// straight to the WAL-backed failover path.
		w.node, w.last, w.poisoned = nil, nil, true
		workerPoisoned.WithLabelValues(shardLbl).Set(1)
		w.logf("worker shard %d/%d: apply batch %d failed, state poisoned pending restore: %v",
			w.curShard, w.curOf, nb.Seq, err)
		writeError(rw, http.StatusInternalServerError, "apply batch %d: %v", nb.Seq, err)
		return
	}
	w.seq = nb.Seq
	w.last = &ApplyResponse{Seq: nb.Seq, Diffs: diffs}
	w.applied++
	workerApplied.WithLabelValues(shardLbl).Inc()
	writeJSON(rw, http.StatusOK, w.last)
}

// readyLocked writes the 412 for a worker with no live state — never
// booted, or poisoned by a failed apply — and reports whether it has one.
// Callers hold w.mu.
func (w *Worker) readyLocked(rw http.ResponseWriter) bool {
	switch {
	case w.node != nil:
		return true
	case w.poisoned:
		writeError(rw, http.StatusPreconditionFailed, "worker shard %d/%d poisoned by a failed apply; awaiting /init", w.curShard, w.curOf)
	default:
		writeError(rw, http.StatusPreconditionFailed, "worker not initialized")
	}
	return false
}

// handleViolations returns the maintained set, globalized.
func (w *Worker) handleViolations(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.checkEpochLocked(rw, r, false) || !w.readyLocked(rw) {
		return
	}
	vios, err := w.node.Violations()
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "violations: %v", err)
		return
	}
	writeJSON(rw, http.StatusOK, ViolationsResponse{Seq: w.seq, Violations: vios})
}

// handleStats returns the node's state summary with the worker's
// applied-batch and redelivery counts.
func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.checkEpochLocked(rw, r, false) || !w.readyLocked(rw) {
		return
	}
	st, err := w.node.Stats()
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "stats: %v", err)
		return
	}
	st.BatchesApplied, st.Redeliveries = w.applied, w.redelivered
	writeJSON(rw, http.StatusOK, st)
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	writeJSON(rw, http.StatusOK, w.stateLocked())
}

// stateLocked renders the worker's StateResponse; callers hold w.mu.
// A poisoned worker still reports the slot and epoch it was booted for
// — the probe must say *which* shard needs an /init, not regress to
// looking like a never-initialized spare.
func (w *Worker) stateLocked() StateResponse {
	st := StateResponse{OK: true, Shard: w.shardID, Of: w.of, Seq: w.seq,
		Epoch: w.epoch, Poisoned: w.poisoned}
	if w.node != nil {
		st.Ready = true
		st.Shard, st.Of = w.curShard, w.curOf
		st.Rows = w.node.Table().NumRows()
	} else if w.poisoned {
		st.Shard, st.Of = w.curShard, w.curOf
	}
	return st
}
