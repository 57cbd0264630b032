// Process-global instrumentation of the incremental engine. Handles
// are resolved once here, so the apply hot path pays atomics only; the
// depth/size gauges are last-apply-wins across the engines sharing the
// process (one engine per session in the server, K per coordinator in
// sharded mode — the gauges answer "what did an apply just see", the
// histograms and counters aggregate).
package stream

import "github.com/anmat/anmat/internal/obs"

var (
	applyDur = obs.Default.NewHistogram("anmat_stream_apply_duration_seconds",
		"Engine.ApplyCtx batch latency (validation, mutation, diff maintenance).",
		obs.DurationBuckets)
	opsAppend = obs.Default.NewCounterVec("anmat_stream_delta_ops_total",
		"Delta operations applied, by kind.", "op").WithLabelValues("append")
	opsUpdate = obs.Default.NewCounterVec("anmat_stream_delta_ops_total",
		"Delta operations applied, by kind.", "op").WithLabelValues("update")
	opsDelete = obs.Default.NewCounterVec("anmat_stream_delta_ops_total",
		"Delta operations applied, by kind.", "op").WithLabelValues("delete")
	batchesApplied = obs.Default.NewCounter("anmat_stream_batches_total",
		"Delta batches applied by in-process engines.")
	difflogDepth = obs.Default.NewGauge("anmat_stream_difflog_depth",
		"Retained diff-log depth after the most recent apply (last engine to apply wins).")
	violationSize = obs.Default.NewGauge("anmat_stream_violations",
		"Maintained violation-set size after the most recent apply (last engine to apply wins).")
)
