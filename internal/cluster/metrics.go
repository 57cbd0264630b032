// Cluster-layer instrumentation: retry/backoff accounting on the
// coordinator's client side, epoch fences and per-shard apply counters
// on the worker side, and WAL byte accounting in the failover
// store. Worker counters are labeled by the shard the worker
// currently serves, so several workers sharing one process (unit
// tests) stay distinguishable.
package cluster

import "github.com/anmat/anmat/internal/obs"

var (
	retrySleeps = obs.Default.NewCounter("anmat_cluster_retries_total",
		"Retry sleeps taken by remote worker calls (attempts beyond the first).")
	retryExhausted = obs.Default.NewCounter("anmat_cluster_retries_exhausted_total",
		"Remote worker calls that exhausted their retry budget (failover trigger).")
	clusterWALBytes = obs.Default.NewCounter("anmat_cluster_wal_bytes_total",
		"Bytes appended to the coordinator's failover WAL.")
	clusterWALAppendDur = obs.Default.NewHistogram("anmat_cluster_wal_append_duration_seconds",
		"Latency of journaling one batch to the failover WAL (includes fsync when enabled).",
		obs.DurationBuckets)
	epochFences = obs.Default.NewCounter("anmat_worker_epoch_fences_total",
		"Worker requests rejected by epoch fencing (a superseded coordinator knocking).")
	workerApplied = obs.Default.NewCounterVec("anmat_worker_batches_applied_total",
		"Batches a worker's engine actually applied, by shard (cache replays excluded).", "shard")
	workerApplyDur = obs.Default.NewHistogramVec("anmat_worker_apply_duration_seconds",
		"Worker-side engine apply latency, by shard.", obs.DurationBuckets, "shard")
	workerRedeliveries = obs.Default.NewCounterVec("anmat_worker_redeliveries_total",
		"Redelivered batches answered from the worker's idempotency cache, by shard.", "shard")
	workerPoisoned = obs.Default.NewGaugeVec("anmat_worker_poisoned",
		"1 while a worker's shard state is poisoned pending its next /init, by shard.", "shard")
	workerBoots = obs.Default.NewCounter("anmat_worker_boots_total",
		"Worker state boots (an /init from a coordinator, at start or on failover).")
)
