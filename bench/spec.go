// The benchmark's fixed vocabulary: workloads, their sizes and traffic
// mixes, and every metric name with its unit. BENCHMARK.json at the repo
// root repeats the names; a unit test keeps the two in step.
package main

import "time"

// sessionSpec is one table a stream workload keeps current.
type sessionSpec struct {
	tableSpec
	PoolRows int // rows generated for appends (reused cyclically if a run outlasts them)
}

// uploadSpec shapes the one-shot workload: each slot of the rotation is
// uploaded in turn, read back page by page, scored and deleted.
type uploadSpec struct {
	Rotation []string // table families, in upload order
	Rows     int
	ErrRate  float64
	Pool     int // distinct tables generated per run (reused cyclically)
	PageSize int
}

type workloadSpec struct {
	Name string
	Why  string
	Topo topology
	// Clients is the number of closed loops, each on its own connection
	// and each the only writer of the sessions assigned to it.
	Clients  int
	Sessions []sessionSpec
	Mix      []mixEntry
	// PollGap makes a session's writer poll violations?since= after this
	// many batches (workloads whose mix has no reads of its own).
	PollGap int
	Upload  *uploadSpec
}

// Before each kill of the recovery phase every session's journal is
// brought to a set length — settleTail batches since its last checkpoint
// before the first kill, settleStep more before each later one, so that
// every kill has freshly acknowledged batches to lose — and recover_s
// times the same replay on every run instead of wherever in the
// compaction cycle the timed phase happened to stop.
const (
	settleTail = 32
	settleStep = 1 // settleTail + (setupRepeats*recoverGroupMax-1)*settleStep stays below the server's compaction threshold
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median. The first set-up carries the timed phase; the
// others come between the groups of the recovery phase.
const setupRepeats = 3

// The recovery phase kills and restarts the server in setupRepeats
// groups; a group goes on for recoverGroupTime, but makes at least
// recoverGroupMin and at most recoverGroupMax kills. recover_s is the
// median over all of them.
const (
	recoverGroupMin  = 2
	recoverGroupMax  = 8
	recoverGroupTime = 1500 * time.Millisecond
)

// deltaPageLimit is the ?limit= writers put on delta responses.
const deltaPageLimit = 200

var pointMix = []mixEntry{
	{opAppend, 1, 0.75},
	{opUpdate, 1, 0.25},
}

func repeatSessions(n int, s sessionSpec) []sessionSpec {
	out := make([]sessionSpec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// workloads are the four traffic shapes, at full size. Sizes are the
// ISSUE's starting counts scaled down together to fit the builder
// contract's time cap (see README "Sizing").
var workloads = []workloadSpec{
	{
		Name:    "upload_discover",
		Why:     "one-shot user: upload, read every violation, delete; table/profile/discovery/detect do the work, stream/shard/cluster none",
		Clients: 1,
		Upload: &uploadSpec{
			// zip appears twice so the median upload falls inside one
			// family's cost mode rather than on the boundary between two.
			Rotation: []string{"phone", "name", "zip", "addresses", "zip"},
			Rows:     10_000,
			ErrRate:  0.005,
			Pool:     10,
			PageSize: 10,
		},
	},
	{
		Name:     "stream_point",
		Why:      "ordered single writer of 1-row batches on a uniform 50k-row table: stream apply, one fsync per batch and fixed per-request cost dominate",
		Clients:  1,
		Sessions: repeatSessions(1, sessionSpec{tableSpec{"phone", 50_000, 0, 0.005}, 8_000}),
		Mix:      pointMix,
		PollGap:  8,
	},
	{
		Name:    "stream_mixed",
		Why:     "8 sessions, 2 tenants, 2 writers: bulk appends, update batches, renumbering deletes and readers on the session lock, with group commit and store-wide checkpoints",
		Topo:    topology{Limits: true},
		Clients: 2,
		Sessions: append(
			repeatSessions(4, sessionSpec{tableSpec{"phone", 10_000, 1.5, 0.005}, 12_000}),
			repeatSessions(4, sessionSpec{tableSpec{"zip", 10_000, 0, 0.005}, 12_000})...),
		Mix: []mixEntry{
			{opAppend, 50, 0.45},
			{opUpdate, 10, 0.15},
			{opDelete, 5, 0.05},
			{opSince, 0, 0.25},
			{opPage, 0, 0.10},
		},
	},
	{
		Name:     "stream_cluster",
		Why:      "the stream_point mix through a coordinator and 2 shard workers on a skewed table: shard translate/fan-out/merge, cluster RPC and the 2K journal are the price of distribution",
		Topo:     topology{Workers: 2},
		Clients:  1,
		Sessions: repeatSessions(1, sessionSpec{tableSpec{"phone", 50_000, 1.5, 0.005}, 8_000}),
		Mix:      pointMix,
		PollGap:  8,
	},
}

// scaled shrinks a workload's tables (the quick smoke path).
func (w workloadSpec) scaled(f float64) workloadSpec {
	shrink := func(n int) int {
		if n = int(float64(n) * f); n < 200 {
			n = 200
		}
		return n
	}
	out := w
	out.Sessions = append([]sessionSpec(nil), w.Sessions...)
	for i := range out.Sessions {
		out.Sessions[i].Rows = shrink(out.Sessions[i].Rows)
		out.Sessions[i].PoolRows = shrink(out.Sessions[i].PoolRows)
	}
	if w.Upload != nil {
		u := *w.Upload
		u.Rows = shrink(u.Rows)
		u.Pool = len(u.Rotation)
		out.Upload = &u
	}
	return out
}

// metricDef is one metric's fixed name, unit and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ack_p50_ms", "ms", "lower"},
	{"ack_tail_ms", "ms", "lower"},
	{"rows_per_s", "rows/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"detect_f1", "ratio", "higher"},
}

// perLayer are the traced replay's metrics, grouped by the package they
// time. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"loadgen.http_overhead_us", "us", "lower"},
	{"loadgen.paced_ack_p50_ms", "ms", "lower"},
	{"loadgen.paced_ack_p99_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.read_tail_ms", "ms", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.other_us", "us", "lower"},
	{"server.req_bytes", "B", "lower"},
	{"server.resp_bytes", "B", "lower"},
	{"table.read_csv_ms", "ms", "lower"},
	{"table.read_csv_rows_per_s", "rows/s", "higher"},
	{"table.encode_bin_ms", "ms", "lower"},
	{"profile.run_ms", "ms", "lower"},
	{"dmv.run_ms", "ms", "lower"},
	{"discovery.run_ms", "ms", "lower"},
	{"discovery.pfds", "count", "higher"},
	{"detect.run_ms", "ms", "lower"},
	{"detect.rows_per_s", "rows/s", "higher"},
	{"detect.allocs_per_row", "1/row", "lower"},
	{"detect.repairs_ms", "ms", "lower"},
	{"detect.violations", "count", "lower"},
	{"stream.bootstrap_ms", "ms", "lower"},
	{"stream.apply_append_us", "us", "lower"},
	{"stream.apply_update_us", "us", "lower"},
	{"stream.apply_delete_us", "us", "lower"},
	{"stream.apply_allocs_per_op", "1/op", "lower"},
	{"stream.apply_bytes_per_op", "B/op", "lower"},
	{"stream.since_us", "us", "lower"},
	{"stream.diff_changes_per_batch", "1/batch", "lower"},
	{"stream.violations", "count", "lower"},
	{"shard.boot_ms", "ms", "lower"},
	{"shard.apply_us", "us", "lower"},
	{"shard.node_apply_us", "us", "lower"},
	{"shard.node_max_over_mean", "ratio", "lower"},
	{"shard.coord_self_us", "us", "lower"},
	{"shard.rows_max_over_mean", "ratio", "lower"},
	{"shard.nodes_per_batch", "1/batch", "lower"},
	{"cluster.apply_us", "us", "lower"},
	{"cluster.rpc_us", "us", "lower"},
	{"cluster.store_append_us", "us", "lower"},
	{"cluster.wal_bytes_per_batch", "B/batch", "lower"},
	{"cluster.retries", "count", "lower"},
	{"persist.journal_us", "us", "lower"},
	{"persist.journal_bytes_per_batch", "B/batch", "lower"},
	{"persist.fsyncs_per_batch", "1/batch", "lower"},
	{"persist.batches_per_fsync", "ratio", "higher"},
	{"persist.checkpoint_ms", "ms", "lower"},
	{"persist.checkpoint_bytes", "B", "lower"},
	{"persist.checkpoints", "count", "lower"},
	{"persist.durable_bytes_per_row", "B/row", "lower"},
	{"persist.restore_ms", "ms", "lower"},
	{"wal.encode_us", "us", "lower"},
	{"docstore.open_ms", "ms", "lower"},
	{"docstore.store_bytes", "B", "lower"},
	{"obs.span_ns", "ns", "lower"},
	{"obs.span_allocs", "count", "lower"},
	{"obs.spans_per_request", "1/req", "lower"},
}
