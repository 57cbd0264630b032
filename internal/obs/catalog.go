// The span-name catalog: every span name the codebase starts must be
// listed here (exact names, or a "prefix.*" wildcard for families built
// from a bounded enum, like the pipeline stages). cmd/obslint walks the
// source for obs.Span/StartSpan/StartTrace call sites and fails CI on a
// name this catalog does not know — the same no-unregistered-names
// discipline the metric registry enforces at runtime, applied to spans.
package obs

import "strings"

// SpanCatalog lists every registered span name. Entries ending in ".*"
// are prefix wildcards.
var SpanCatalog = []string{
	// HTTP roots (the route lands in the "route" attribute; see
	// Instrument).
	"http.request",
	// Pipeline stages (core.RunStages): stage.profile, stage.dmv,
	// stage.discovery, stage.confirm, stage.detection, stage.repairs.
	"stage.*",
	// Incremental detection.
	"stream.bootstrap",
	"stream.apply",
	// Sharded fan-out (coordinator side).
	"shard.fanout",
	"shard.node.apply",
	// Distributed mode: the coordinator→worker RPC (one span per
	// attempt) and the coordinator's failover-store WAL append.
	"cluster.rpc",
	"cluster.wal.append",
	// Session durability: the write-ahead journal commit a delta batch
	// waits for before it is applied, and the checkpoint write behind a
	// request (a detached span: it belongs to no request's trace, but a
	// slow one shows in the slow-span ring).
	"persist.journal",
	"persist.checkpoint.write",
}

// SpanNameRegistered reports whether the catalog covers the span name.
func SpanNameRegistered(name string) bool {
	for _, entry := range SpanCatalog {
		if prefix, ok := strings.CutSuffix(entry, "*"); ok {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		} else if name == entry {
			return true
		}
	}
	return false
}
