// The shard wire protocol, version 1: plain HTTP/JSON under /shard/v1/.
// A worker is one shard.Node behind a listener — the request and response
// bodies are the Node interface's types (shard.NodeBatch in, diffs and
// globalized violations out) plus a boot envelope carrying the rules, so
// the coordinator's routing, merge, and failover logic stays identical
// whether a shard runs in-process or across the network.
//
//	POST /shard/v1/init        BootRequest        → StateResponse   (boot or replace state)
//	POST /shard/v1/apply       shard.NodeBatch    → ApplyResponse   (idempotent by seq)
//	GET  /shard/v1/violations                     → ViolationsResponse
//	GET  /shard/v1/stats                          → shard.NodeStats (with applied/redelivered counts)
//	GET  /shard/v1/trace/{id}                     → obs.Trace
//	GET  /healthz                                 → StateResponse
//	GET  /metrics                                 → Prometheus text
//
// These are exactly the calls RemoteNode makes, plus the probes. Every
// route names its method: any other method is a 405.
//
// Errors are {"error": "..."} with a 4xx/5xx status; 409 marks sequence
// and epoch conflicts (gap, stale replay, fenced-out coordinator) and
// 412 marks calls against an uninitialized (or poisoned) worker.
//
// # Epoch fencing
//
// A worker holds exactly one shard state, so it belongs to exactly one
// coordinator at a time. Each boot carries the coordinator's epoch (a
// unique string; see Options.Client.Epoch) and the worker records it;
// every later request from a RemoteNode repeats the epoch in the
// X-Anmat-Epoch header. A boot for a new epoch is an ownership transfer
// — it replaces the state — after which the previous coordinator's
// applies fail with 409 instead of silently mutating the new owner's
// state. Applies require a matching header once an epoch is set; reads
// reject only a *mismatched* header, so header-less operator requests
// (curl against /stats, /violations) still work.
package cluster

import (
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
)

// APIPrefix is the versioned path prefix of the shard worker API.
const APIPrefix = "/shard/v1"

// EpochHeader carries the requesting coordinator's epoch on every
// RemoteNode call; see the epoch-fencing section of the package comment.
const EpochHeader = "X-Anmat-Epoch"

// BootRequest initializes (or replaces) a worker's shard state: the boot sub-table and mapping, the rule set, the sequence
// number the state corresponds to, and the booting coordinator's epoch
// (the worker fences later requests against it).
type BootRequest struct {
	Boot  shard.NodeBoot `json:"boot"`
	Rules []*pfd.PFD     `json:"rules"`
	Seq   int64          `json:"seq"`
	Epoch string         `json:"epoch,omitempty"`
}

// StateResponse describes a worker's current state (init reply and
// health probe body). Epoch and Poisoned make the probe diagnostic:
// a worker that discarded its state after a failed apply reports the
// slot it was serving and Poisoned=true instead of looking like a
// fresh spare.
type StateResponse struct {
	OK       bool   `json:"ok"`
	Shard    int    `json:"shard"`
	Of       int    `json:"of"`
	Ready    bool   `json:"ready"` // false until the first init lands
	Seq      int64  `json:"seq"`
	Rows     int    `json:"rows"`
	Epoch    string `json:"epoch,omitempty"`
	Poisoned bool   `json:"poisoned,omitempty"`
}

// ApplyResponse returns one applied batch's globalized per-op diffs
// (empty unless the batch requested them).
type ApplyResponse struct {
	Seq   int64          `json:"seq"`
	Diffs []*stream.Diff `json:"diffs,omitempty"`
}

// ViolationsResponse returns the worker's maintained violation set,
// globalized, at the given sequence number. Workers keep no diff
// history: the coordinator owns the merged cursor log.
type ViolationsResponse struct {
	Seq        int64           `json:"seq"`
	Violations []pfd.Violation `json:"violations,omitempty"`
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
