// Package anmat is the public facade of the ANMAT reproduction: automatic
// knowledge discovery and error detection through pattern functional
// dependencies (Qahtan et al., SIGMOD 2019).
//
// A System is built with functional options and hosts any number of
// concurrent sessions, each with a stable ID. Every pipeline entry point
// takes a context.Context for cancellation:
//
//	t, _ := anmat.LoadCSV("employees.csv")
//	sys, _ := anmat.New()                        // in-memory store
//	sess := sys.NewSession("myproject", t, anmat.DefaultParams())
//	if err := sess.Run(ctx); err != nil { ... }
//	for _, p := range sess.Discovered { fmt.Println(p, p.Tableau) }
//	for _, v := range sess.Violations { fmt.Println(v.Row, v.Cells) }
//
// Partial flows compose from explicit stages:
//
//	_ = sess.RunStages(ctx, anmat.StageProfile)                     // profile only
//	_ = sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery)
//	sess.UseRules(stored)                                           // stored rules,
//	_ = sess.RunStages(ctx, anmat.StageDetection, anmat.StageRepairs) // no mining
//
// The facade re-exports the pipeline types from the internal packages so
// example programs, the CLI, and the HTTP server share one entry point.
package anmat

import (
	"context"
	"fmt"
	"io"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// Re-exported core types.
type (
	// Table is the relational substrate all operations run on.
	Table = table.Table
	// Params are the two user parameters of the demo: minimum coverage
	// and allowed violation ratio.
	Params = core.Params
	// System is the ANMAT engine bound to a document store.
	System = core.System
	// Session is one dataset's run through the pipeline, addressable by
	// its stable ID.
	Session = core.Session
	// Stage names one composable pipeline step (see RunStages).
	Stage = core.Stage
	// PFD is a pattern functional dependency.
	PFD = pfd.PFD
	// Violation is a detected violation (2 cells for constant rules,
	// 4 cells for variable rules).
	Violation = pfd.Violation
	// Repair is a suggested cell fix.
	Repair = detect.Repair
	// DiscoveryConfig is the full knob set of the discovery algorithm.
	DiscoveryConfig = discovery.Config
	// RuleStats is one rule's detection cost (violations, wall time).
	RuleStats = detect.RuleStats
	// DetectionResult pairs merged violations with per-rule stats.
	DetectionResult = detect.Result
	// StreamEngine is the incremental detection engine behind
	// Session.Stream: it maintains the violation set across row deltas
	// without re-running full detection, byte-identical to DetectContext
	// at any point.
	StreamEngine = stream.Engine
	// Delta is one streaming operation (append / update / delete).
	Delta = stream.Op
	// DeltaBatch is an atomically applied list of deltas.
	DeltaBatch = stream.Batch
	// ViolationDiff reports how one delta batch changed the maintained
	// violation set (and carries the engine's sequence cursor).
	ViolationDiff = stream.Diff
	// StreamStats summarizes a stream engine's maintained state.
	StreamStats = stream.Stats
	// Streamer is the incremental-detection surface Session.Stream
	// returns: a single StreamEngine, or a sharded coordinator when the
	// session runs with WithShards(k > 1) — byte-identical either way.
	Streamer = core.Streamer
	// SessionConfig is the full per-session configuration accepted by
	// System.NewSessionWith (params, shard count, discovery override).
	SessionConfig = core.SessionConfig
	// ShardStats summarizes a sharded session's coordinator: the merged
	// global state plus per-shard row/violation counts.
	ShardStats = shard.Stats
)

// AppendRows builds a delta that appends full records in schema order.
func AppendRows(rows ...[]string) Delta { return stream.AppendRows(rows...) }

// UpdateCell builds a delta that overwrites one cell.
func UpdateCell(row int, column, value string) Delta { return stream.UpdateCell(row, column, value) }

// DeleteRows builds a delta that removes rows (survivors renumber down).
func DeleteRows(rows ...int) Delta { return stream.DeleteRows(rows...) }

// Re-exported pipeline stages.
const (
	StageProfile   = core.StageProfile
	StageDMV       = core.StageDMV
	StageDiscovery = core.StageDiscovery
	StageConfirm   = core.StageConfirm
	StageDetection = core.StageDetection
	StageRepairs   = core.StageRepairs
)

// FullPipeline is the stage list Session.Run executes.
func FullPipeline() []Stage { return core.FullPipeline() }

// DefaultParams returns the demo's default user parameters.
func DefaultParams() Params { return core.DefaultParams() }

// DefaultDiscoveryConfig returns the full default discovery configuration.
func DefaultDiscoveryConfig() DiscoveryConfig { return discovery.Default() }

// Option configures a System built by New.
type Option func(*options) error

type options struct {
	storePath   string
	cfg         core.SystemConfig
	parallelism *int // applied after all options so order doesn't matter
}

// WithStorePath persists the document store at path ("" keeps it
// memory-only, the default).
func WithStorePath(path string) Option {
	return func(o *options) error { o.storePath = path; return nil }
}

// WithParams sets the default user parameters for sessions created
// without explicit ones.
func WithParams(p Params) Option {
	return func(o *options) error { o.cfg.Params = p; return nil }
}

// WithDiscoveryConfig sets the base discovery configuration applied to
// every session (per-session Params still overlay coverage and violation
// ratio).
func WithDiscoveryConfig(cfg DiscoveryConfig) Option {
	return func(o *options) error { o.cfg.Discovery = cfg; return nil }
}

// WithParallelism bounds the per-session worker count of the whole
// pipeline: candidate dependencies mined concurrently during discovery
// AND the detection/repair engine's tableau-row fan-out (0 = GOMAXPROCS).
// Results are identical at every setting. It composes with
// WithDiscoveryConfig in either order.
func WithParallelism(n int) Option {
	return func(o *options) error { o.parallelism = &n; return nil }
}

// WithShards sets the default shard count of every session's incremental
// detection engine. With k > 1 a session's table is hash-partitioned on
// the rule set's block keys across k per-shard engines that ingest
// deltas independently; the merged violation set is byte-identical to
// the single-engine one at every k. 0 or 1 keeps the single engine.
// Override per session with SessionConfig.Shards.
func WithShards(k int) Option {
	return func(o *options) error {
		if k < 0 {
			return fmt.Errorf("anmat: WithShards(%d): want >= 0", k)
		}
		o.cfg.Shards = k
		return nil
	}
}

// WithWorkers runs every session's incremental detection engine in
// distributed mode: one shard per worker base URL, driven over the
// /shard/v1 HTTP API with WAL-backed failover (see internal/cluster).
// Takes precedence over WithShards; the merged violation set stays
// byte-identical to the single-engine one at any worker count. Spares
// are standby workers consumed on failover (optional).
func WithWorkers(workers []string, spares ...string) Option {
	return func(o *options) error {
		o.cfg.Workers = append([]string(nil), workers...)
		o.cfg.ClusterSpares = append([]string(nil), spares...)
		return nil
	}
}

// WithClusterDir sets the directory distributed sessions persist their
// worker-failover stores under (snapshot + WAL, one
// subdirectory per session). "" keeps per-session temporary directories.
func WithClusterDir(dir string) Option {
	return func(o *options) error { o.cfg.ClusterDir = dir; return nil }
}

// New builds a System from functional options. With no options the store
// is memory-only and all parameters take their demo defaults.
func New(opts ...Option) (*System, error) {
	o := options{cfg: core.DefaultSystemConfig()}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.parallelism != nil {
		// One knob: core threads it through discovery and detection alike.
		o.cfg.Parallelism = *o.parallelism
	}
	store := docstore.NewMem()
	if o.storePath != "" {
		var err error
		if store, err = docstore.Open(o.storePath); err != nil {
			return nil, err
		}
	}
	return core.NewSystemWith(store, o.cfg), nil
}

// LoadCSV reads a table from a CSV file (header row required).
func LoadCSV(path string) (*Table, error) { return table.ReadCSVFile(path) }

// ReadCSV reads a table from a reader.
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// NewTable builds an empty table with the given columns.
func NewTable(name string, columns []string) (*Table, error) { return table.New(name, columns) }

// Discover runs only the discovery stage with a full configuration,
// bypassing the session pipeline.
func Discover(t *Table, cfg DiscoveryConfig) ([]*PFD, error) {
	return DiscoverContext(context.Background(), t, cfg)
}

// DiscoverContext is Discover with cancellation.
func DiscoverContext(ctx context.Context, t *Table, cfg DiscoveryConfig) ([]*PFD, error) {
	res, err := discovery.DiscoverContext(ctx, t, cfg)
	if err != nil {
		return nil, err
	}
	return res.PFDs, nil
}

// Detect evaluates the given PFDs against a table with all optimizations
// enabled.
func Detect(t *Table, ps []*PFD) ([]Violation, error) {
	return detect.New(t, detect.Options{}).DetectAll(ps)
}

// DetectContext is Detect with cancellation, a worker-pool fan-out, and
// per-rule timing stats. parallelism bounds the worker count (0 =
// GOMAXPROCS); the violation list is byte-identical at every setting.
func DetectContext(ctx context.Context, t *Table, ps []*PFD, parallelism int) (*DetectionResult, error) {
	return detect.New(t, detect.Options{}).DetectAllContext(ctx, ps, parallelism)
}

// SuggestRepairs derives repair suggestions for the PFDs' violations,
// sorted by cell; a cell suggested by several rules keeps the earliest
// rule's suggestion.
func SuggestRepairs(t *Table, ps []*PFD) ([]Repair, error) {
	return SuggestRepairsContext(context.Background(), t, ps, 1)
}

// SuggestRepairsContext is SuggestRepairs with cancellation and a
// per-rule worker pool (0 = GOMAXPROCS); output is identical at every
// parallelism level.
func SuggestRepairsContext(ctx context.Context, t *Table, ps []*PFD, parallelism int) ([]Repair, error) {
	return detect.New(t, detect.Options{}).RepairsAllContext(ctx, ps, parallelism)
}

// ApplyRepairs writes the suggestions into the table and returns the
// number of changed cells.
func ApplyRepairs(t *Table, rs []Repair) (int, error) { return detect.Apply(t, rs) }
