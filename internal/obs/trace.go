// Distributed tracing: trace/span IDs with parent→child links, carried
// through context so the existing obs.Span(ctx, name) call sites join
// the active trace without a signature change, propagated across
// process boundaries as a W3C traceparent header, and collected into a
// bounded in-memory store: the most recent traces, plus the most recent
// slow or errored ones however many plain traces came after them.
//
// The flow: obs.Instrument starts a trace per request (adopting an
// inbound traceparent as a remote parent, minting a fresh trace
// otherwise) and stamps the trace ID on the response. StartSpan opens a
// child of the context's active span; Span is StartSpan for leaf stages.
// A child that ends buffers on its trace's root span; when the root ends
// the buffer and the root become one Trace in the store. Remote-parented
// segments (a worker serving one coordinator RPC) are kept the same way
// and served back over the worker's trace endpoint so the coordinator
// can merge the full tree.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceparentHeader is the W3C trace-context header carrying
// "00-<trace-id>-<span-id>-<flags>" on cross-process requests.
const TraceparentHeader = "traceparent"

// TraceIDHeader carries the request's trace ID on HTTP responses, so a
// client can immediately ask `anmat trace <id>` about its own request.
const TraceIDHeader = "X-Anmat-Trace-Id"

// SpanContext identifies one span within one trace: a 32-hex-char trace
// ID and a 16-hex-char span ID (the W3C trace-context field widths).
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether both IDs have the right width, are hex, and are
// not all-zero (the W3C invalid values).
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

func validHexID(s string, width int) bool { return lowerHex(s, width) && strings.Trim(s, "0") != "" }

// lowerHex reports whether s is width lowercase hex digits, the only
// hex W3C trace-context allows.
func lowerHex(s string, width int) bool {
	return len(s) == width && strings.Trim(s, "0123456789abcdef") == ""
}

// Traceparent renders the W3C header value for this span context,
// version 00 with the sampled flag set (every span is recorded; the
// trace store decides retention).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value: exactly four
// dash-separated fields — a version of two lowercase hex digits other
// than the reserved ff, a 32-digit trace ID, a 16-digit span ID and two
// digits of flags, all lowercase hex, neither ID all zeros — with
// surrounding whitespace trimmed. Anything else means "no parent", never
// an error, per the spec's restart semantics.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 {
		return SpanContext{}, false
	}
	ver, flags := parts[0], parts[3]
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !lowerHex(ver, 2) || ver == "ff" || !lowerHex(flags, 2) || !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// NewTraceID mints a 32-hex-char random trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 16-hex-char random span ID.
func NewSpanID() string { return randHex(8) }

// SpanRecord is one finished span as the trace store retains it.
type SpanRecord struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	Parent   string            `json:"parent_span_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Err      string            `json:"error,omitempty"`
}

// Trace is one retained trace: the root (or remote-parented segment
// root) span's identity plus every span recorded under the trace ID in
// this process. Spans from other processes are merged in by the trace
// API, not here.
type Trace struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Root is the root span's ID ("" for a remote segment whose true
	// root lives in another process).
	Root     string        `json:"root,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Errored  bool          `json:"errored,omitempty"`
	Slow     bool          `json:"slow,omitempty"`
	// Remote marks a segment collected under a remote parent (worker
	// side) — the root lives in the process that sent the traceparent.
	Remote bool         `json:"remote,omitempty"`
	Spans  []SpanRecord `json:"spans"`

	inOrder, inSlow bool // which of the store's FIFOs hold the trace
}

// Retention bounds. Every finished trace enters a FIFO of DefaultTraceCap
// traces; a slow or errored one also enters a FIFO of slowTraceCap that
// only a newer slow or errored trace can push it out of. Spans per trace
// are capped so one runaway request cannot grow its trace without bound.
const (
	DefaultTraceCap  = 512
	slowTraceCap     = 64
	maxSpansPerTrace = 512
)

// TraceStore is a bounded in-memory collector of finished traces. One
// process-global instance (Traces) backs every span in the process.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	traces map[string]*Trace
	order  []string // every retained trace, oldest first
	slow   []string // the slow or errored ones, oldest first
}

// Traces is the process-global trace store.
var Traces = NewTraceStore(DefaultTraceCap)

// NewTraceStore returns an empty store whose plain FIFO holds cap traces
// (minimum 1).
func NewTraceStore(cap int) *TraceStore {
	return &TraceStore{cap: max(cap, 1), traces: make(map[string]*Trace)}
}

// Reset drops every retained trace — the test-isolation hook.
func (ts *TraceStore) Reset() {
	ts.mu.Lock()
	ts.traces = make(map[string]*Trace)
	ts.order, ts.slow = nil, nil
	ts.mu.Unlock()
}

// record appends a span that ended after its root to the retained trace,
// if the store still holds it; otherwise the span is dropped.
func (ts *TraceStore) record(rec SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tr, ok := ts.traces[rec.TraceID]; ok && len(tr.Spans) < maxSpansPerTrace {
		tr.Spans = append(tr.Spans, rec)
	}
}

// finish retains one trace (or remote segment): the root's record plus
// the spans that ended under it. A later segment of a trace already
// retained (another worker request under the same trace) merges into it.
func (ts *TraceStore) finish(spans []SpanRecord, root SpanRecord, remote bool) {
	slow, errored := isSlow(root.Duration), false
	spans = append(spans, root)
	for _, s := range spans {
		errored = errored || s.Err != ""
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr, ok := ts.traces[root.TraceID]
	if ok {
		if room := maxSpansPerTrace - len(tr.Spans); room > 0 {
			tr.Spans = append(tr.Spans, spans[:min(room, len(spans))]...)
		}
		tr.Errored = tr.Errored || errored
		tr.Slow = tr.Slow || slow
	} else {
		name := root.Name
		if route, ok := root.Attrs["route"]; ok && route != "" {
			// HTTP roots are all named "http.request" (span names stay a
			// bounded catalog); the route attribute is the useful display
			// name and the one the trace list filters on.
			name = route
		}
		tr = &Trace{
			ID: root.TraceID, Name: name, Start: root.Start,
			Duration: root.Duration, Errored: errored, Slow: slow, Remote: remote,
			Spans: spans, inOrder: true,
		}
		if !remote {
			tr.Root = root.SpanID
		}
		ts.traces[root.TraceID] = tr
		ts.order = append(ts.order, root.TraceID)
		if len(ts.order) > ts.cap {
			ts.order = ts.pop(ts.order, false)
		}
	}
	if (tr.Slow || tr.Errored) && !tr.inSlow {
		tr.inSlow = true
		ts.slow = append(ts.slow, root.TraceID)
		if len(ts.slow) > slowTraceCap {
			ts.slow = ts.pop(ts.slow, true)
		}
	}
}

// pop removes the oldest ID from one of the two FIFOs and forgets its
// trace once neither holds it. Callers hold ts.mu.
func (ts *TraceStore) pop(q []string, slowQ bool) []string {
	tr := ts.traces[q[0]]
	if slowQ {
		tr.inSlow = false
	} else {
		tr.inOrder = false
	}
	if !tr.inSlow && !tr.inOrder {
		delete(ts.traces, q[0])
	}
	return q[1:]
}

// Get returns a copy of one retained trace, with its spans sorted by
// start time.
func (ts *TraceStore) Get(id string) (Trace, bool) {
	ts.mu.Lock()
	tr, ok := ts.traces[id]
	if !ok {
		ts.mu.Unlock()
		return Trace{}, false
	}
	out := *tr
	out.Spans = append([]SpanRecord(nil), tr.Spans...)
	ts.mu.Unlock()
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start.Before(out.Spans[j].Start) })
	return out, true
}

// TraceFilter narrows a List call. The zero value matches everything.
type TraceFilter struct {
	// Route keeps traces whose root name contains the substring.
	Route string
	// MinDuration keeps traces at least this slow.
	MinDuration time.Duration
	// Limit caps the result count (0 = no cap). Most recent first.
	Limit int
	// Slow lists the slow-or-errored queue instead of every trace.
	Slow bool
}

// List returns retained traces matching the filter, most recent first,
// without their span bodies (summaries; fetch a full tree with Get).
func (ts *TraceStore) List(f TraceFilter) []Trace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ids := ts.order
	if f.Slow {
		ids = ts.slow
	}
	out := make([]Trace, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		tr := ts.traces[ids[i]]
		if f.Route != "" && !strings.Contains(tr.Name, f.Route) {
			continue
		}
		if tr.Duration < f.MinDuration {
			continue
		}
		cp := *tr
		cp.Spans = nil
		out = append(out, cp)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// ---- context plumbing ----

// activeSpan is the context-carried handle of an in-flight span.
type activeSpan struct {
	sc     SpanContext
	parent string
	name   string
	start  time.Time
	root   *activeSpan // the span that ends this process's part of the trace
	remote bool        // trace is rooted in another process

	mu    sync.Mutex // guards the fields below
	attrs map[string]string
	done  bool
	spans []SpanRecord // on a root: the children that ended before it
}

type spanCtxKey struct{}
type remoteCtxKey struct{}
type ridCtxKey struct{}

// ContextWithRemote records a remote parent span context (an inbound
// traceparent) on the context; the next StartTrace joins that trace
// instead of minting a new one.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// ContextWithRequestID carries the request ID so outbound calls
// (cluster.RemoteNode) can forward it alongside the traceparent.
func ContextWithRequestID(ctx context.Context, rid string) context.Context {
	if rid == "" {
		return ctx
	}
	return context.WithValue(ctx, ridCtxKey{}, rid)
}

// RequestIDFrom returns the request ID carried by the context ("" when
// none).
func RequestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridCtxKey{}).(string)
	return rid
}

// TraceIDFrom returns the active trace's ID ("" when the context
// carries no span).
func TraceIDFrom(ctx context.Context) string {
	if as, ok := ctx.Value(spanCtxKey{}).(*activeSpan); ok {
		return as.sc.TraceID
	}
	return ""
}

// TraceparentFrom renders the traceparent header value of the context's
// active span ("" when there is none) — the inject half of propagation.
func TraceparentFrom(ctx context.Context) string {
	if as, ok := ctx.Value(spanCtxKey{}).(*activeSpan); ok {
		return as.sc.Traceparent()
	}
	return ""
}

// SetSpanAttrs attaches key/value attribute pairs to the context's
// active span (no-op without one). Odd trailing keys are dropped.
func SetSpanAttrs(ctx context.Context, kv ...string) {
	as, ok := ctx.Value(spanCtxKey{}).(*activeSpan)
	if !ok {
		return
	}
	as.mu.Lock()
	if as.attrs == nil {
		as.attrs = make(map[string]string, len(kv)/2)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		as.attrs[kv[i]] = kv[i+1]
	}
	as.mu.Unlock()
}

// StartTrace opens the root span of a new trace — or, when the context
// carries a remote parent (ContextWithRemote), the root of a local
// segment of that remote trace. The returned context carries the span
// for StartSpan/Span call sites below it; the returned func ends the
// span and hands the trace to the store. Pass a non-nil error to mark
// the trace errored.
func StartTrace(ctx context.Context, name string) (context.Context, func(err error)) {
	as := &activeSpan{name: name, start: time.Now()}
	as.root = as
	if rsc, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok {
		as.sc = SpanContext{TraceID: rsc.TraceID, SpanID: NewSpanID()}
		as.parent = rsc.SpanID
		as.remote = true
	} else {
		as.sc = SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	}
	ctx = context.WithValue(ctx, spanCtxKey{}, as)
	return ctx, func(err error) {
		// The root's lock is held into the store, so a child ending now
		// either joins the buffer or finds the trace already stored.
		as.mu.Lock()
		defer as.mu.Unlock()
		if rec, first := as.endLocked(err); first {
			Traces.finish(as.spans, rec, as.remote)
			as.spans = nil
		}
	}
}

// StartSpan opens a child of the context's active span. Without one the
// span is detached: it feeds the duration histogram, and only when it
// runs over the slow threshold does it become a one-span trace of its
// own. The returned context carries the new span; the returned func
// ends it (non-nil error marks it, and its trace, errored).
func StartSpan(ctx context.Context, name string) (context.Context, func(err error)) {
	parent, traced := ctx.Value(spanCtxKey{}).(*activeSpan)
	as := &activeSpan{name: name, start: time.Now()}
	if traced {
		as.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: NewSpanID()}
		as.parent = parent.sc.SpanID
		as.root = parent.root
		ctx = context.WithValue(ctx, spanCtxKey{}, as)
	}
	return ctx, func(err error) {
		as.mu.Lock()
		rec, first := as.endLocked(err)
		as.mu.Unlock()
		switch {
		case !first:
		case traced:
			as.root.add(rec)
		case isSlow(rec.Duration):
			rec.TraceID, rec.SpanID = NewTraceID(), NewSpanID()
			Traces.finish(nil, rec, false)
		}
	}
}

// add buffers one finished child on its root. A child that ends after
// its root goes to the retained trace, if the store still holds it.
func (root *activeSpan) add(rec SpanRecord) {
	root.mu.Lock()
	defer root.mu.Unlock()
	if root.done {
		Traces.record(rec)
	} else if len(root.spans) < maxSpansPerTrace {
		root.spans = append(root.spans, rec)
	}
}

// endLocked renders the span's record and observes its duration exactly
// once; later calls report first=false and change nothing. Callers hold
// as.mu.
func (as *activeSpan) endLocked(err error) (SpanRecord, bool) {
	if as.done {
		return SpanRecord{}, false
	}
	as.done = true
	rec := SpanRecord{
		TraceID: as.sc.TraceID, SpanID: as.sc.SpanID, Parent: as.parent,
		Name: as.name, Start: as.start, Duration: time.Since(as.start),
		Attrs: as.attrs,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	spanDur.WithLabelValues(rec.Name).Observe(rec.Duration.Seconds())
	return rec, true
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return strings.Repeat("0", 2*n-1) + "1" // never all-zero
	}
	return hex.EncodeToString(b)
}
