// Lightweight span timing: obs.Span(ctx, name) marks the start of a
// named stage and the returned func records its duration into the
// anmat_span_duration_seconds{span=...} histogram. When the context
// carries an active trace (see trace.go) the span joins it as a child
// of the context's span. A trace whose root runs over the slow
// threshold — or a detached span that does — is also kept in the trace
// store's slow queue: the "what was slow recently" window an operator
// reads when a latency histogram moves but the cause is gone.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// spanDur is the stage-latency histogram every span feeds.
var spanDur = Default.NewHistogramVec("anmat_span_duration_seconds",
	"Duration of named internal stages (pipeline stages, engine bootstrap, batch apply).",
	DurationBuckets, "span")

// slowThreshold is the duration (ns) at or above which a trace, or a
// detached span, counts as slow.
var slowThreshold atomic.Int64

func init() { SetSlowThreshold(250 * time.Millisecond) }

// SetSlowThreshold sets the duration at or above which a trace (or a
// detached span) is slow and enters the trace store's slow queue
// (default 250ms; 0 makes everything slow).
func SetSlowThreshold(d time.Duration) { slowThreshold.Store(int64(d)) }

func isSlow(d time.Duration) bool { return int64(d) >= slowThreshold.Load() }

// Span starts a named span as a child of the context's active span (a
// detached timing-only span when the context carries none). Call the
// returned func when the stage ends; it observes the duration into the
// span histogram and records the span into its trace.
func Span(ctx context.Context, name string) func() {
	_, end := StartSpan(ctx, name)
	return func() { end(nil) }
}
