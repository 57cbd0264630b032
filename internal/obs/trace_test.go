package obs

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// retained is the number of traces the process-global store holds.
func retained() int {
	Traces.mu.Lock()
	defer Traces.mu.Unlock()
	return len(Traces.traces)
}

// resetTracing restores the process-global tracing state around a test.
func resetTracing(t *testing.T) {
	t.Helper()
	Traces.Reset()
	SetSlowThreshold(250 * time.Millisecond)
	t.Cleanup(func() {
		Traces.Reset()
		SetSlowThreshold(250 * time.Millisecond)
	})
}

// TestTraceparentRoundTrip pins the W3C render/parse pair: a valid span
// context survives the round trip; malformed headers parse to "no
// parent", never panic or half-parse.
func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if !sc.Valid() {
		t.Fatalf("minted span context invalid: %+v", sc)
	}
	hdr := sc.Traceparent()
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip %q: got %+v ok=%v, want %+v", hdr, got, ok, sc)
	}
	// A foreign version with extra trailing data is still a 4-field parse
	// failure under our strict reader (version 00 widths only).
	tid, sid := sc.TraceID, sc.SpanID

	malformed := []struct {
		name, in string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"three fields", "00-" + tid + "-" + sid},
		{"five fields", "00-" + tid + "-" + sid + "-01-extra"},
		{"reserved version ff", "ff-" + tid + "-" + sid + "-01"},
		{"non-hex version", "zz-" + tid + "-" + sid + "-01"},
		{"reserved version FF", "FF-" + tid + "-" + sid + "-01"},
		{"uppercase version", "0A-" + tid + "-" + sid + "-01"},
		{"uppercase flags", "00-" + tid + "-" + sid + "-0A"},
		{"short trace id", "00-" + tid[:31] + "-" + sid + "-01"},
		{"long trace id", "00-" + tid + "0-" + sid + "-01"},
		{"short span id", "00-" + tid + "-" + sid[:15] + "-01"},
		{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-" + sid + "-01"},
		{"uppercase hex", "00-" + strings.ToUpper(tid) + "-" + sid + "-01"},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + sid + "-01"},
		{"all-zero span id", "00-" + tid + "-" + strings.Repeat("0", 16) + "-01"},
		{"short flags", "00-" + tid + "-" + sid + "-1"},
		{"non-hex flags", "00-" + tid + "-" + sid + "-zz"},
	}
	for _, tc := range malformed {
		if _, ok := ParseTraceparent(tc.in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", tc.name, tc.in)
		}
	}
	// Flags other than 01 are fine (we ignore them), and surrounding
	// whitespace is trimmed.
	for _, in := range []string{
		"00-" + tid + "-" + sid + "-00",
		"  00-" + tid + "-" + sid + "-01  ",
	} {
		if got, ok := ParseTraceparent(in); !ok || got.TraceID != tid || got.SpanID != sid {
			t.Errorf("ParseTraceparent(%q) = %+v ok=%v, want accept with same IDs", in, got, ok)
		}
	}
}

// FuzzParseTraceparent: whatever the parser accepts is a valid span
// context that survives a render/parse round trip, and came from a
// header whose version and flags are lowercase hex, the version not ff.
func FuzzParseTraceparent(f *testing.F) {
	tid, sid := strings.Repeat("4b", 16), strings.Repeat("a3", 8)
	for _, seed := range []string{
		"00-" + tid + "-" + sid + "-01",
		"00-" + tid + "-" + sid + "-00",
		"  00-" + tid + "-" + sid + "-01  ",
		"ff-" + tid + "-" + sid + "-01",
		"FF-" + tid + "-" + sid + "-01",
		"00-" + tid + "-" + sid + "-0A",
		"00-" + strings.ToUpper(tid) + "-" + sid + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01",
		"00-" + tid + "-" + sid + "-01-extra",
		"not-a-traceparent",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sc, ok := ParseTraceparent(in)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as the invalid %+v", in, sc)
		}
		if back, ok := ParseTraceparent(sc.Traceparent()); !ok || back != sc {
			t.Fatalf("%q: round trip gives %+v ok=%v, want %+v", in, back, ok, sc)
		}
		parts := strings.Split(strings.TrimSpace(in), "-")
		if ver, flags := parts[0], parts[3]; !lowerHex(ver, 2) || ver == "ff" || !lowerHex(flags, 2) {
			t.Fatalf("accepted %q: version %q, flags %q", in, ver, flags)
		}
	})
}

// TestTraceParentLinks builds one trace through the public API and
// checks the recorded tree: children point at their parents, every span
// shares the trace ID, and attributes land on the span they were set on.
func TestTraceParentLinks(t *testing.T) {
	resetTracing(t)
	ctx, endTrace := StartTrace(context.Background(), "http.request")
	SetSpanAttrs(ctx, "route", "POST /api/v1/sessions/{id}/deltas")
	rootID := TraceIDFrom(ctx)
	if rootID == "" {
		t.Fatal("no trace ID on the root context")
	}
	if tp := TraceparentFrom(ctx); !strings.Contains(tp, rootID) {
		t.Fatalf("traceparent %q does not carry trace ID %s", tp, rootID)
	}
	childCtx, endChild := StartSpan(ctx, "stream.apply")
	SetSpanAttrs(childCtx, "seq", "1")
	_, endGrand := StartSpan(childCtx, "persist.journal")
	endGrand(nil)
	endChild(nil)
	endTrace(nil)

	tr, ok := Traces.Get(rootID)
	if !ok {
		t.Fatalf("trace %s not retained", rootID)
	}
	if tr.Name != "POST /api/v1/sessions/{id}/deltas" {
		t.Errorf("trace name = %q, want the route attribute", tr.Name)
	}
	byName := map[string]SpanRecord{}
	for _, sp := range tr.Spans {
		if sp.TraceID != rootID {
			t.Errorf("span %s carries trace ID %s, want %s", sp.Name, sp.TraceID, rootID)
		}
		byName[sp.Name] = sp
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3: %+v", len(tr.Spans), tr.Spans)
	}
	root, child, grand := byName["http.request"], byName["stream.apply"], byName["persist.journal"]
	if root.Parent != "" {
		t.Errorf("root has parent %q", root.Parent)
	}
	if tr.Root != root.SpanID {
		t.Errorf("trace root = %q, want %q", tr.Root, root.SpanID)
	}
	if child.Parent != root.SpanID {
		t.Errorf("child parent = %q, want root %q", child.Parent, root.SpanID)
	}
	if grand.Parent != child.SpanID {
		t.Errorf("grandchild parent = %q, want child %q", grand.Parent, child.SpanID)
	}
	if child.Attrs["seq"] != "1" {
		t.Errorf("child attrs = %v, want seq=1", child.Attrs)
	}
}

// TestRemoteSegmentAlwaysKept pins the worker-side contract: a trace
// rooted in another process (inbound traceparent) is retained as a
// remote segment that links back to the remote parent span.
func TestRemoteSegmentAlwaysKept(t *testing.T) {
	resetTracing(t)
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	ctx := ContextWithRemote(context.Background(), parent)
	ctx, endTrace := StartTrace(ctx, "http.request")
	if got := TraceIDFrom(ctx); got != parent.TraceID {
		t.Fatalf("remote segment trace ID = %s, want adopted %s", got, parent.TraceID)
	}
	_, endChild := StartSpan(ctx, "stream.apply")
	endChild(nil)
	endTrace(nil)
	tr, ok := Traces.Get(parent.TraceID)
	if !ok {
		t.Fatal("remote segment not retained")
	}
	if !tr.Remote || tr.Root != "" {
		t.Errorf("remote=%v root=%q, want remote=true with no local root", tr.Remote, tr.Root)
	}
	// The segment root links back to the remote parent span.
	var segRoot SpanRecord
	for _, sp := range tr.Spans {
		if sp.Name == "http.request" {
			segRoot = sp
		}
	}
	if segRoot.Parent != parent.SpanID {
		t.Errorf("segment root parent = %q, want remote parent %q", segRoot.Parent, parent.SpanID)
	}
}

// TestTailSamplingProperty drives 10 000 randomized traces through the
// store and checks its retention against a model of the two FIFOs: the
// last DefaultTraceCap traces and the last slowTraceCap slow-or-errored
// ones can always be fetched, nothing else can, and the store never
// holds more than the two bounds together. Stretches where slow traces
// are rare make the slow queue outlive the plain FIFO.
func TestTailSamplingProperty(t *testing.T) {
	resetTracing(t)
	rng := rand.New(rand.NewSource(1))

	finishOne := func(errored, slow bool) string {
		ctx, endTrace := StartTrace(context.Background(), "http.request")
		id := TraceIDFrom(ctx)
		// The threshold is read when the trace ends, so flipping it between
		// start and end deterministically makes this trace slow (0 =
		// everything is slow) or not (1h).
		if slow {
			SetSlowThreshold(0)
		} else {
			SetSlowThreshold(time.Hour)
		}
		var err error
		if errored {
			err = fmt.Errorf("boom")
		}
		endTrace(err)
		return id
	}
	kept := func(id string) bool { _, ok := Traces.Get(id); return ok }

	var all, marked []string
	var pMarked float64
	for i := 0; i < 10_000; i++ {
		if i%500 == 0 {
			pMarked = []float64{0.002, 0.05, 0.5}[rng.Intn(3)]
		}
		errored, slow := false, false
		if rng.Float64() < pMarked {
			errored, slow = rng.Intn(2) == 0, rng.Intn(2) == 0
			slow = slow || !errored
		}
		id := finishOne(errored, slow)
		all = append(all, id)
		if errored || slow {
			marked = append(marked, id)
		}
		// The model: the last DefaultTraceCap of all, plus the last
		// slowTraceCap marked ones the plain window no longer covers.
		inPlain := make(map[string]bool, DefaultTraceCap)
		for _, id := range all[max(0, len(all)-DefaultTraceCap):] {
			inPlain[id] = true
		}
		want := len(inPlain)
		for _, id := range marked[max(0, len(marked)-slowTraceCap):] {
			if !inPlain[id] {
				want++
			}
			if !kept(id) {
				t.Fatalf("iter %d: slow/errored trace %s evicted while among the last %d", i, id, slowTraceCap)
			}
		}
		if n := retained(); n != want || n > DefaultTraceCap+slowTraceCap {
			t.Fatalf("iter %d: store holds %d traces, model says %d (bound %d)", i, n, want, DefaultTraceCap+slowTraceCap)
		}
		if len(all) > DefaultTraceCap {
			gone := all[len(all)-DefaultTraceCap-1]
			if kept(gone) != slices.Contains(marked[max(0, len(marked)-slowTraceCap):], gone) {
				t.Fatalf("iter %d: trace %s past the plain FIFO: kept=%v", i, gone, kept(gone))
			}
		}
	}
	// The slow list is exactly the marked window, most recent first.
	slow := Traces.List(TraceFilter{Slow: true})
	if len(slow) != slowTraceCap {
		t.Fatalf("slow list holds %d traces, want %d", len(slow), slowTraceCap)
	}
	for k, tr := range slow {
		if want := marked[len(marked)-1-k]; tr.ID != want {
			t.Fatalf("slow list[%d] = %s, want %s", k, tr.ID, want)
		}
	}
}

// TestConcurrentChildrenJoinOnce ends eight children of one root from
// eight goroutines while the root itself ends: whichever side of the
// root's end a child lands on, the trace holds every span exactly once.
func TestConcurrentChildrenJoinOnce(t *testing.T) {
	resetTracing(t)
	for round := 0; round < 50; round++ {
		ctx, endTrace := StartTrace(context.Background(), "http.request")
		id := TraceIDFrom(ctx)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			_, end := StartSpan(ctx, "shard.node.apply")
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				end(nil)
				end(nil) // a second end changes nothing
			}()
		}
		close(start)
		endTrace(nil)
		wg.Wait()
		tr, ok := Traces.Get(id)
		if !ok {
			t.Fatalf("round %d: trace not retained", round)
		}
		seen := make(map[string]bool)
		for _, sp := range tr.Spans {
			if seen[sp.SpanID] {
				t.Fatalf("round %d: span %s recorded twice", round, sp.SpanID)
			}
			seen[sp.SpanID] = true
		}
		if len(seen) != 9 {
			t.Fatalf("round %d: trace holds %d spans, want 9", round, len(seen))
		}
	}
}

// TestDetachedSpanStaysOut: a fast span started without an active trace
// feeds metrics only — it creates no trace — while a slow one becomes a
// one-span trace in the slow queue.
func TestDetachedSpanStaysOut(t *testing.T) {
	resetTracing(t)
	_, end := StartSpan(context.Background(), "stage.profile")
	end(nil)
	if n := retained(); n != 0 {
		t.Fatalf("detached span retained a trace: %d", n)
	}
	SetSlowThreshold(0)
	_, end = StartSpan(context.Background(), "stream.bootstrap")
	end(nil)
	slow := Traces.List(TraceFilter{Slow: true})
	if len(slow) != 1 || slow[0].Name != "stream.bootstrap" || !slow[0].Slow {
		t.Fatalf("slow detached span: slow list %+v, want one stream.bootstrap trace", slow)
	}
	if tr, ok := Traces.Get(slow[0].ID); !ok || len(tr.Spans) != 1 || tr.Root != tr.Spans[0].SpanID {
		t.Fatalf("slow detached span's trace = %+v, want its one span as the root", tr)
	}
}

// TestSpanCatalogCoversTestNames guards the names used across the test
// suite (and thus the codebase's span vocabulary) are registered.
func TestSpanCatalogCoversTestNames(t *testing.T) {
	for _, name := range []string{
		"http.request", "stage.profile", "stage.detection", "stream.bootstrap",
		"stream.apply", "shard.fanout", "shard.node.apply", "cluster.rpc",
		"cluster.wal.append", "persist.journal",
	} {
		if !SpanNameRegistered(name) {
			t.Errorf("span name %q not in the catalog", name)
		}
	}
	if SpanNameRegistered("made.up.name") {
		t.Error("catalog accepted an unregistered name")
	}
}
