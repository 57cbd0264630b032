// Durability-layer instrumentation: WAL append/fsync latency and byte
// volume on the journaling hot path; for checkpoints, what the request
// path pays (the cut) apart from counts/sizes/latency of the write behind
// it, which are recorded when a write lands.
package persist

import "github.com/anmat/anmat/internal/obs"

var (
	walAppendDur = obs.Default.NewHistogram("anmat_persist_wal_append_duration_seconds",
		"Latency of durably journaling one delta batch (includes fsync when enabled).",
		obs.DurationBuckets)
	walBytes = obs.Default.NewCounter("anmat_persist_wal_bytes_total",
		"Bytes appended to session WALs.")
	checkpoints = obs.Default.NewCounter("anmat_persist_checkpoints_total",
		"Session snapshot checkpoints written.")
	compactions = obs.Default.NewCounter("anmat_persist_compactions_total",
		"Checkpoints that folded a non-empty WAL into the snapshot (compaction runs).")
	checkpointFailures = obs.Default.NewCounter("anmat_persist_checkpoint_failures_total",
		"Checkpoint writes that failed; the previous snapshot and the whole journal stay, and the session's next batch retries.")
	checkpointCutDur = obs.Default.NewHistogram("anmat_persist_checkpoint_cut_duration_seconds",
		"On-path part of a checkpoint inside the persister: waiting out the session's previous write and switching journal segments. A compaction's ack pays this plus the row-header copy of the table freeze before it, not the write.",
		obs.DurationBuckets)
	checkpointDur = obs.Default.NewHistogram("anmat_persist_checkpoint_duration_seconds",
		"Checkpoint write latency, cut to landed (table encode, snapshot file replace, journal segment truncation); on a goroutine of its own, awaited only by baseline checkpoints.",
		obs.DurationBuckets)
	checkpointBytes = obs.Default.NewHistogram("anmat_persist_checkpoint_size_bytes",
		"Serialized size of checkpointed session snapshots.",
		obs.SizeBuckets)
	// The two names are older than the plain commit (there is no group);
	// the benchmark reads both families by name.
	groupBatches = obs.Default.NewCounter("anmat_wal_group_commit_batches_total",
		"Delta batches durably journaled (one wal.Log.Commit each).")
	groupFsyncs = obs.Default.NewCounter("anmat_wal_group_commit_fsyncs_total",
		"WAL fsync calls issued by journal commits: one per batch with -fsync, none without.")
)
