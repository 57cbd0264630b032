// Package core orchestrates the ANMAT system: project and dataset
// management over the document store, and the Profile → Discover →
// Confirm → Detect → Repair pipeline the demo walks through (Section 4).
//
// Every Session carries a stable ID so callers (the HTTP server, future
// shard routers) can address it after creation, and every pipeline entry
// point takes a context.Context: cancellation is checked between stages
// and inside the discovery candidate loop.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/dmv"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// Params are the two user inputs of Section 4 ("Anmat accepts two user
// input parameters"): the minimum coverage and the ratio of allowed
// violations.
type Params struct {
	// MinCoverage is γ.
	MinCoverage float64 `json:"min_coverage"`
	// AllowedViolations is ρ, the tolerated violation ratio per rule.
	AllowedViolations float64 `json:"allowed_violations"`
}

// DefaultParams mirrors discovery.Default.
func DefaultParams() Params {
	d := discovery.Default()
	return Params{MinCoverage: d.MinCoverage, AllowedViolations: d.MaxViolationRatio}
}

// SystemConfig carries system-wide defaults applied to every new session.
type SystemConfig struct {
	// Params are the default user parameters for sessions created without
	// explicit ones.
	Params Params
	// Discovery is the base discovery configuration; per-session Params
	// overlay its MinCoverage/MaxViolationRatio.
	Discovery discovery.Config
	// Parallelism bounds the per-session worker count across the whole
	// pipeline — discovery candidates (unless Discovery.Parallelism is
	// set explicitly) and the detection/repair engine (0 = GOMAXPROCS).
	// Output is identical at every setting; see detect.DetectAllContext.
	Parallelism int
	// Shards is the default shard count of every session's incremental
	// detection engine (0 or 1 = one engine, no sharding). With K > 1 the
	// session's table is hash-partitioned on block keys across K
	// per-shard engines (see internal/shard); results are byte-identical
	// at every K. Per-session SessionConfig.Shards overrides it.
	Shards int
	// Workers, when non-empty, runs every session's incremental engine in
	// distributed mode: one shard per worker base URL, driven over the
	// /shard/v1 HTTP API (see internal/cluster). Takes precedence over
	// Shards; results stay byte-identical at any worker count.
	// Per-session SessionConfig.Workers overrides it.
	//
	// A worker holds exactly one shard state, so a worker set serves
	// exactly one distributed session: the first session to build its
	// engine claims the endpoints for the system's lifetime, and any
	// other session configured over a claimed endpoint fails to build its
	// engine with a clear error. To run several distributed sessions,
	// give each (via SessionConfig.Workers) a disjoint worker set.
	Workers []string
	// ClusterSpares are standby worker base URLs distributed sessions
	// fail over to when a primary stops answering. They form one shared
	// system-level pool with claim-once semantics: a spare consumed by
	// one session's failover is never handed to another.
	ClusterSpares []string
	// ClusterDir is the directory of distributed sessions' failover
	// stores (snapshot + K-way replicated WAL); each session uses a
	// subdirectory keyed by its ID. "" keeps per-session temporary
	// directories.
	ClusterDir string
}

// DefaultSystemConfig returns the demo defaults.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{Params: DefaultParams(), Discovery: discovery.Default()}
}

// System is the ANMAT engine bound to a document store.
type System struct {
	store *docstore.Store
	cfg   SystemConfig
	seq   atomic.Int64 // session ID sequence

	// cmu guards the cluster endpoint bookkeeping below.
	cmu sync.Mutex
	// workerClaims maps each claimed worker endpoint to the session
	// holding it. A worker carries exactly one shard state, so two
	// sessions sharing an endpoint would silently clobber each other;
	// claims are taken when a distributed session builds its engine and
	// last for the system's lifetime.
	workerClaims map[string]string
	// clusterSpares is the shared failover pool seeded from
	// SystemConfig.ClusterSpares; each endpoint is handed out at most
	// once across all sessions.
	clusterSpares []string
}

// NewSystem builds a system over the store with default configuration
// (use docstore.NewMem for ephemeral sessions).
func NewSystem(store *docstore.Store) *System {
	return NewSystemWith(store, DefaultSystemConfig())
}

// NewSystemWith builds a system with explicit defaults. A zero-value
// Discovery config is replaced by discovery.Default(); a config with any
// field set is taken verbatim.
func NewSystemWith(store *docstore.Store, cfg SystemConfig) *System {
	if cfg.Discovery.IsZero() {
		cfg.Discovery = discovery.Default()
	}
	// Params are taken verbatim — zero values are a legitimate request
	// for no coverage floor / zero tolerated violations.
	return &System{
		store:         store,
		cfg:           cfg,
		workerClaims:  make(map[string]string),
		clusterSpares: append([]string(nil), cfg.ClusterSpares...),
	}
}

// claimWorkers reserves the worker endpoints for one session, erroring
// when any is already held by another: a worker holds exactly one shard
// state, so sharing it across sessions would silently replace the first
// session's state (see SystemConfig.Workers). Re-claiming by the same
// session (an engine rebuild) is a no-op.
func (s *System) claimWorkers(sessionID string, endpoints []string) error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for _, ep := range endpoints {
		if owner, ok := s.workerClaims[ep]; ok && owner != sessionID {
			return fmt.Errorf("worker %s already serves session %s's shards; distributed sessions need disjoint worker sets", ep, owner)
		}
	}
	for _, ep := range endpoints {
		s.workerClaims[ep] = sessionID
	}
	return nil
}

// claimSpare hands one standby endpoint from the shared failover pool to
// the session, or "" when none is left. Each spare is claimed at most
// once across all sessions, so two failing-over sessions can never
// restore conflicting shard states onto the same endpoint.
func (s *System) claimSpare(sessionID string) string {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for len(s.clusterSpares) > 0 {
		ep := s.clusterSpares[0]
		s.clusterSpares = s.clusterSpares[1:]
		if owner, ok := s.workerClaims[ep]; ok && owner != sessionID {
			continue // listed both as a primary and a spare; already taken
		}
		s.workerClaims[ep] = sessionID
		return ep
	}
	return ""
}

// Store exposes the underlying document store.
func (s *System) Store() *docstore.Store { return s.store }

// Defaults returns the system-wide default session parameters.
func (s *System) Defaults() Params { return s.cfg.Params }

// Collections used by the system: the projects, and one PFD rule set per
// table name (LoadPFDs serves it to later sessions). What a session
// computes — profile, violations, DMV findings — lives on the Session,
// which is what every reader is served from.
const (
	CollProjects = "projects"
	CollPFDs     = "pfds"
)

// CreateProject registers a project ("new users can create their own
// projects") and returns its id.
func (s *System) CreateProject(name string) int64 {
	return s.store.Insert(CollProjects, docstore.Doc{"name": name})
}

// Projects lists the registered project names.
func (s *System) Projects() []string {
	docs := s.store.Find(CollProjects, nil)
	out := make([]string, 0, len(docs))
	for _, d := range docs {
		if n, ok := d["name"].(string); ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// LoadPFDs retrieves previously stored PFDs for a table from the document
// store — the demo's flow of reloading rules mined in an earlier session
// instead of re-running discovery. Filters by table name; pass "" for all.
func (s *System) LoadPFDs(tableName string) ([]*pfd.PFD, error) {
	var f docstore.Filter
	if tableName != "" {
		f = docstore.Filter{"table": tableName}
	}
	docs := s.store.Find(CollPFDs, f)
	out := make([]*pfd.PFD, 0, len(docs))
	for _, d := range docs {
		b, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		var p pfd.PFD
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, fmt.Errorf("load pfd %v: %w", d[docstore.IDField], err)
		}
		out = append(out, &p)
	}
	return out, nil
}

// Session is one dataset loaded into a project, carrying the pipeline's
// intermediate products. A Session is not safe for concurrent use;
// callers that share one (e.g. the HTTP server) must guard it. Distinct
// sessions are independent and may run concurrently.
type Session struct {
	sys *System
	// ID is the stable identifier assigned at creation; it addresses the
	// session in registries and the versioned HTTP API.
	ID      string
	Project string
	Table   *table.Table
	Params  Params
	// Discovery, when non-nil, overrides the system's base discovery
	// configuration for this session (Params still overlay coverage and
	// violation ratio).
	Discovery *discovery.Config

	Profile profile.TableProfile
	// profiledTable and profiledVersion record which table, at which
	// Version, RunProfile computed Profile from, so RunDiscovery can hand
	// it to discovery instead of profiling the same rows again.
	profiledTable   *table.Table
	profiledVersion int64

	Discovered []*pfd.PFD
	Confirmed  []*pfd.PFD
	Violations []pfd.Violation
	Repairs    []detect.Repair
	Stats      []discovery.CandidateStats
	// DetectStats records, per confirmed rule, how long detection took
	// and how many violations it contributed (filled by RunDetection).
	DetectStats []detect.RuleStats
	DMVs        []DMVFinding

	// det is the session's lazily built detection engine, shared between
	// RunDetection and RunRepairs so each column index is built once per
	// session rather than once per stage (see Session.engine).
	det *detect.Detector

	// detected records whether detection has run at least once, so API
	// layers can distinguish "zero violations" from "never detected".
	detected bool

	// shards, when > 0, overrides the system's default shard count for
	// this session's incremental engine (see SessionConfig.Shards).
	shards int

	// workers, when non-empty, overrides the system's default worker list
	// for this session's incremental engine (see SessionConfig.Workers).
	workers []string

	// str is the session's lazily built incremental detection engine —
	// a single stream.Engine, or a shard.Coordinator when the session is
	// sharded (see Session.Stream); strRules snapshots the rule set it
	// was built over so a Confirm/UseRules change triggers a rebuild.
	str      Streamer
	strRules []*pfd.PFD
	// strNextBase carries the sequence base of an engine whose baseline
	// checkpoint failed, so the retry rebuild continues the same timeline
	// instead of restarting cursors at zero.
	strNextBase int64

	// persist, when set, is the session's durability sink: delta batches
	// are journaled write-ahead through the engine sink, and engine
	// rebuilds checkpoint a fresh baseline (see snapshot.go).
	persist Persister
}

// NewSession binds a table to a project with the given parameters
// (stored verbatim — use System.Defaults for the system-wide ones) and
// assigns a stable session ID.
func (s *System) NewSession(project string, t *table.Table, p Params) *Session {
	id := fmt.Sprintf("s%d", s.seq.Add(1))
	return &Session{sys: s, ID: id, Project: project, Table: t, Params: p}
}

// SessionConfig is the full per-session configuration of NewSessionWith.
type SessionConfig struct {
	// Params are the session's user parameters (see Params).
	Params Params
	// Shards overrides the system default shard count for this session's
	// incremental detection engine: 0 inherits SystemConfig.Shards, 1
	// forces a single engine, K > 1 partitions the table across K
	// per-shard engines with byte-identical results.
	Shards int
	// Workers overrides the system default worker list for this session's
	// incremental detection engine: nil inherits SystemConfig.Workers, a
	// non-empty list runs one shard per worker over HTTP (internal/cluster)
	// with byte-identical results.
	Workers []string
	// Discovery, when non-nil, overrides the system's base discovery
	// configuration for this session.
	Discovery *discovery.Config
}

// NewSessionWith is NewSession with the full per-session configuration.
func (s *System) NewSessionWith(project string, t *table.Table, cfg SessionConfig) *Session {
	se := s.NewSession(project, t, cfg.Params)
	se.shards = cfg.Shards
	se.workers = cfg.Workers
	se.Discovery = cfg.Discovery
	return se
}

// Shards resolves the session's effective shard count: the worker count
// in distributed mode, else the per-session override when set, else the
// system default, and never below 1.
func (se *Session) Shards() int {
	if w := se.Workers(); len(w) > 0 {
		return len(w)
	}
	k := se.shards
	if k == 0 {
		k = se.sys.cfg.Shards
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Workers resolves the session's effective worker list: the per-session
// override when set, the system default otherwise. Empty means the
// engine runs in-process.
func (se *Session) Workers() []string {
	if len(se.workers) > 0 {
		return se.workers
	}
	return se.sys.cfg.Workers
}

// discoveryConfig resolves the effective discovery configuration: the
// session override (or the system base) with the session Params overlaid.
// SystemConfig.Parallelism is the one pipeline-wide worker knob, so
// discovery inherits it unless the discovery config sets its own.
func (se *Session) discoveryConfig() discovery.Config {
	cfg := se.sys.cfg.Discovery
	if se.Discovery != nil {
		cfg = *se.Discovery
	}
	cfg.MinCoverage = se.Params.MinCoverage
	cfg.MaxViolationRatio = se.Params.AllowedViolations
	if cfg.Parallelism == 0 {
		cfg.Parallelism = se.sys.cfg.Parallelism
	}
	return cfg
}

// Stage names one composable step of the pipeline.
type Stage string

// The pipeline stages, in canonical order.
const (
	StageProfile   Stage = "profile"
	StageDMV       Stage = "dmv"
	StageDiscovery Stage = "discovery"
	StageConfirm   Stage = "confirm" // confirm every discovered PFD
	StageDetection Stage = "detection"
	StageRepairs   Stage = "repairs"
)

// FullPipeline is the stage list Run executes: the demo's end-to-end flow
// (DMV scanning stays on demand, as in the GUI).
func FullPipeline() []Stage {
	return []Stage{StageProfile, StageDiscovery, StageConfirm, StageDetection, StageRepairs}
}

// RunStages executes the given stages in order, checking ctx between
// stages. This is the composition point for partial flows: profile-only
// (StageProfile), discovery-only (StageProfile, StageDiscovery), or
// detect-with-stored-rules (UseRules then StageDetection, StageRepairs).
func (se *Session) RunStages(ctx context.Context, stages ...Stage) error {
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("session %s: stage %s: %w", se.ID, st, err)
		}
		end := obs.Span(ctx, "stage."+string(st))
		var err error
		switch st {
		case StageProfile:
			se.RunProfile()
		case StageDMV:
			se.RunDMV()
		case StageDiscovery:
			_, err = se.RunDiscovery(ctx)
		case StageConfirm:
			se.Confirm()
		case StageDetection:
			_, err = se.RunDetection(ctx)
		case StageRepairs:
			_, err = se.RunRepairs(ctx)
		default:
			err = fmt.Errorf("unknown pipeline stage %q", st)
		}
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// RunProfile computes the table profile (the Figure 3 step: "the system
// will automatically profile the dataset").
func (se *Session) RunProfile() profile.TableProfile {
	se.Profile = profile.ProfileTable(se.Table)
	se.profiledTable, se.profiledVersion = se.Table, se.Table.Version()
	return se.Profile
}

// DMVFinding pairs a column with its suspected disguised missing values.
type DMVFinding struct {
	Column   string        `json:"column"`
	Suspects []dmv.Suspect `json:"suspects"`
}

// RunDMV scans every column for disguised missing values; findings are
// kept on the session. It does not modify the table — use
// discovery.Config.CleanDMVs to exclude them from mining.
func (se *Session) RunDMV() []DMVFinding {
	se.DMVs = se.DMVs[:0]
	for i, col := range se.Table.Columns() {
		suspects := dmv.Detect(se.Table.InternedColumn(i), dmv.Options{})
		if len(suspects) == 0 {
			continue
		}
		se.DMVs = append(se.DMVs, DMVFinding{Column: col, Suspects: suspects})
	}
	return se.DMVs
}

// RunDiscovery mines PFDs with the session parameters and stores them as
// the rule set of the table's name, in place of what an earlier run over
// a table of that name stored: the store is bounded by the table names it
// has seen, not by the runs. Cancelling ctx aborts mining mid-candidate
// with an error wrapping context.Canceled.
func (se *Session) RunDiscovery(ctx context.Context) ([]*pfd.PFD, error) {
	var tp *profile.TableProfile // nil: discovery profiles the table itself
	if se.profiledTable == se.Table && se.profiledVersion == se.Table.Version() {
		tp = &se.Profile // the profile stage already did, on exactly these rows
	}
	res, err := discovery.DiscoverProfiled(ctx, se.Table, tp, se.discoveryConfig())
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Discovered = res.PFDs
	se.Stats = res.Stats
	se.sys.store.Delete(CollPFDs, docstore.Filter{"table": se.Table.Name()})
	for _, p := range res.PFDs {
		if _, err := se.sys.store.InsertJSON(CollPFDs, p); err != nil {
			return nil, fmt.Errorf("store pfd %s: %w", p.ID(), err)
		}
	}
	return res.PFDs, nil
}

// Confirm marks a subset of the discovered PFDs as validated by the user
// ("the user … can display the tableau of each dependency and confirm
// whether that discovered dependency is valid"). Passing no ids confirms
// everything.
func (se *Session) Confirm(ids ...string) []*pfd.PFD {
	if len(ids) == 0 {
		se.Confirmed = se.Discovered
		return se.Confirmed
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	// Build a fresh slice: after a full run Confirmed aliases Discovered,
	// and appending into Confirmed[:0] would overwrite Discovered's
	// backing array.
	confirmed := make([]*pfd.PFD, 0, len(ids))
	for _, p := range se.Discovered {
		if want[p.ID()] {
			confirmed = append(confirmed, p)
		}
	}
	se.Confirmed = confirmed
	return se.Confirmed
}

// UseRules installs externally obtained PFDs (e.g. loaded from the store
// via System.LoadPFDs) as the session's confirmed rule set, bypassing
// discovery.
func (se *Session) UseRules(ps []*pfd.PFD) {
	se.Confirmed = ps
}

// engine returns the session's detection engine, built lazily and shared
// between detection and repairs so column indexes are built once per
// session rather than once per stage. A table mutated since the engine
// was built (e.g. repairs applied in place via detect.Apply) bumps the
// table version, so the engine is rebuilt here rather than serving stale
// indexes. The table must still not be mutated concurrently with a
// running detection.
func (se *Session) engine() *detect.Detector {
	if se.det == nil || se.det.Stale() {
		se.det = detect.New(se.Table, detect.Options{})
	}
	return se.det
}

// rules returns the active rule set: the confirmed PFDs, or every
// discovered one when none were explicitly confirmed.
func (se *Session) rules() []*pfd.PFD {
	if se.Confirmed != nil {
		return se.Confirmed
	}
	return se.Discovered
}

// RunDetection evaluates the confirmed PFDs (all discovered ones when
// none were explicitly confirmed) with the system's parallelism. Per-rule
// timing lands in DetectStats.
// Cancelling ctx stops the engine between tableau-row batches.
func (se *Session) RunDetection(ctx context.Context) ([]pfd.Violation, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session %s: detection: %w", se.ID, err)
	}
	res, err := se.engine().DetectAllContext(ctx, se.rules(), se.sys.cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Violations = res.Violations
	se.DetectStats = res.Stats
	se.detected = true
	return res.Violations, nil
}

// RunRepairs derives repair suggestions from the confirmed PFDs with the
// system's parallelism, checking ctx between rule batches.
func (se *Session) RunRepairs(ctx context.Context) ([]detect.Repair, error) {
	out, err := se.engine().RepairsAllContext(ctx, se.rules(), se.sys.cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Repairs = out
	return out, nil
}

// Run executes the whole pipeline: profile, discovery, detection, repair
// suggestions (confirming every discovered PFD). Cancelling ctx aborts
// between stages and mid-discovery with an error wrapping ctx.Err().
func (se *Session) Run(ctx context.Context) error {
	return se.RunStages(ctx, FullPipeline()...)
}

// DetectionRan reports whether detection has run on this session at
// least once — the difference between "zero violations" and "never
// looked", which the HTTP layer surfaces as a 409.
func (se *Session) DetectionRan() bool { return se.detected }

// samePFDs reports whether two rule slices hold the same rules in the
// same order (pointer identity: sessions share *pfd.PFD values).
func samePFDs(a, b []*pfd.PFD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Streamer is the incremental-detection surface shared by the single
// stream.Engine and the sharded shard.Coordinator: apply (or replay)
// delta batches, read the maintained violation set, and resolve sequence
// cursors. Session.Stream returns one or the other depending on the
// session's shard count; everything downstream — the HTTP API, the CLI
// follow mode, the durability layer — programs against this surface.
type Streamer interface {
	Apply(stream.Batch) (*stream.Diff, error)
	// ApplyCtx is Apply carrying the caller's context so the engine's
	// spans (apply, journal, fan-out, RPC) join the request's trace.
	ApplyCtx(context.Context, stream.Batch) (*stream.Diff, error)
	Replay(stream.Batch) (*stream.Diff, error)
	// Violations is the engine's shared sorted snapshot: read-only.
	Violations() []pfd.Violation
	Since(int64) (*stream.Diff, error)
	Seq() int64
	Stale() bool
	SetSink(func(context.Context, int64, stream.Batch) error)
	Rules() []*pfd.PFD
}

// newStreamer builds the session's incremental engine over the given
// rules at the given base sequence: a cluster coordinator when worker
// endpoints are configured, a shard coordinator when the session is
// sharded in-process, a single stream engine otherwise. Output is
// byte-identical in all three modes.
func (se *Session) newStreamer(rules []*pfd.PFD, base int64) (Streamer, error) {
	if w := se.Workers(); len(w) > 0 {
		// A worker set serves one session: claim the endpoints (for the
		// system's lifetime) so a second distributed session cannot boot
		// over them and clobber this one's shard state.
		if err := se.sys.claimWorkers(se.ID, w); err != nil {
			return nil, err
		}
		dir := ""
		if d := se.sys.cfg.ClusterDir; d != "" {
			dir = filepath.Join(d, se.ID)
		}
		return cluster.New(se.Table, rules, w, cluster.Options{
			BaseSeq: base,
			Dir:     dir,
			// Spares come from the system's shared claim-once pool rather
			// than a per-coordinator copy, so two failing-over sessions can
			// never restore conflicting states onto the same spare.
			Respawn: func(int) string { return se.sys.claimSpare(se.ID) },
		})
	}
	if k := se.Shards(); k > 1 {
		return shard.NewFrom(se.Table, rules, k, base)
	}
	return stream.NewEngineFrom(se.Table, rules, base)
}

// Stream returns the session's incremental detection engine, building it
// lazily over the active rule set and rebuilding when the table was
// mutated outside the engine (e.g. a direct detect.Apply) or the rule set
// changed (Confirm, UseRules). The bootstrap costs about one detection
// pass (split across shards when the session is sharded). After that an
// append or a cell update costs in proportion to what it changes, not to
// the blocks it touches (stream.NewEngineFrom names the exceptions), so
// the engine is the cheap path for continuously arriving data.
func (se *Session) Stream() (Streamer, error) {
	rules := se.rules()
	if len(rules) == 0 {
		return nil, fmt.Errorf("session %s: no rules to stream against (run discovery or UseRules first)", se.ID)
	}
	if se.str == nil || se.str.Stale() || !samePFDs(se.strRules, rules) {
		// A replacement engine continues the old sequence timeline (one
		// past the last issued seq), so cursors issued by the previous
		// engine resolve to a reset snapshot rather than an error.
		base := se.strNextBase
		if se.str != nil && se.str.Seq()+1 > base {
			base = se.str.Seq() + 1
		}
		eng, err := se.newStreamer(rules, base)
		if err != nil {
			return nil, fmt.Errorf("session %s: %w", se.ID, err)
		}
		se.str = eng
		se.strRules = rules
		if se.persist != nil {
			// A fresh engine breaks WAL continuity (its bootstrap state is
			// not snapshot + old WAL), so the new baseline must be durable
			// before any delta is journaled against it. If the checkpoint
			// fails the engine must not be cached either — a later call
			// would otherwise journal batches against a baseline that was
			// never snapshotted, making them unrecoverable.
			eng.SetSink(se.journalSink())
			if err := se.Checkpoint(); err != nil {
				se.str, se.strRules = nil, nil
				se.strNextBase = base
				return nil, err
			}
			se.strNextBase = 0
		}
	}
	return se.str, nil
}

// EngineStats describes the session's live incremental engine for
// observability endpoints. It reports without building: a session whose
// engine has not been constructed yet (or was invalidated) has Kind
// "none".
type EngineStats struct {
	// Kind is "none", "stream" (single engine), or "sharded".
	Kind string `json:"kind"`
	// Shards is the session's resolved shard count (meaningful even
	// before the engine is built).
	Shards  int           `json:"shards"`
	Stream  *stream.Stats `json:"stream,omitempty"`
	Sharded *shard.Stats  `json:"sharded,omitempty"`
}

// EngineStats returns a snapshot of the session's live incremental
// engine, never building one.
func (se *Session) EngineStats() EngineStats {
	out := EngineStats{Kind: "none", Shards: se.Shards()}
	switch e := se.str.(type) {
	case *stream.Engine:
		st := e.Stats()
		out.Kind, out.Stream = "stream", &st
	case *cluster.Coordinator:
		st := e.Stats()
		out.Kind, out.Sharded = "cluster", &st
	case *shard.Coordinator:
		st := e.Stats()
		out.Kind, out.Sharded = "sharded", &st
	}
	return out
}

// ApplyDeltas routes one delta batch through the session's incremental
// engine and refreshes the session's violation set from the maintained
// one (identical to what a full re-detection would produce, without
// running it).
func (se *Session) ApplyDeltas(batch stream.Batch) (*stream.Diff, error) {
	return se.ApplyDeltasCtx(context.Background(), batch)
}

// ApplyDeltasCtx is ApplyDeltas carrying the caller's context: the
// engine's spans — apply, journal, shard fan-out, worker RPCs — attach
// to the context's active trace, so one server request yields one tree.
func (se *Session) ApplyDeltasCtx(ctx context.Context, batch stream.Batch) (*stream.Diff, error) {
	eng, err := se.Stream()
	if err != nil {
		return nil, err
	}
	obs.SetSpanAttrs(ctx, "session", se.ID)
	diff, err := eng.ApplyCtx(ctx, batch)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Violations = eng.Violations()
	// Periodic snapshot compaction: once the journal has absorbed enough
	// batches, fold them into a fresh checkpoint so recovery replays a
	// short tail instead of the session's whole delta history. The
	// persister writes it behind this call; what can still fail here is
	// not fatal to the batch — it was already journaled write-ahead, so
	// recovery replays it from the WAL; the diff is returned alongside
	// the (persistence-typed) error.
	if se.persist != nil && se.persist.CompactionDue(se.ID) {
		if err := se.checkpoint(true); err != nil {
			return diff, fmt.Errorf("deltas applied but %w", err)
		}
	}
	return diff, nil
}

// ApplyRepairs writes repair suggestions into the session's table. When
// the session has a live incremental engine the repairs become cell
// deltas routed through it — the engine is never discarded and the
// violation diff of the repair falls out for free. Without one it falls
// back to the in-place detect.Apply (which bumps the table version, so a
// later Stream() rebuilds) — unless a persister is attached, in which
// case the engine is (re)built first so the repairs are journaled: the
// in-place path would mutate acknowledged state the durability layer
// never sees. Returns the number of changed cells and the violation diff
// (nil on the fallback path).
func (se *Session) ApplyRepairs(rs []detect.Repair) (int, *stream.Diff, error) {
	if se.str == nil || se.str.Stale() || !samePFDs(se.strRules, se.rules()) {
		if se.persist == nil {
			n, err := detect.Apply(se.Table, rs)
			return n, nil, err
		}
		if _, err := se.Stream(); err != nil {
			return 0, nil, err
		}
	}
	var batch stream.Batch
	for _, r := range rs {
		if r.Cell.Row < 0 || r.Cell.Row >= se.Table.NumRows() {
			return 0, nil, fmt.Errorf("session %s: apply repair: row %d out of range [0,%d) — suggestions predate a delta that renumbered the table; re-run RunRepairs",
				se.ID, r.Cell.Row, se.Table.NumRows())
		}
		cur, err := se.Table.CellByName(r.Cell.Row, r.Cell.Column)
		if err != nil {
			return 0, nil, fmt.Errorf("session %s: apply repair: %w", se.ID, err)
		}
		if cur != r.Suggested {
			batch = append(batch, stream.UpdateCell(r.Cell.Row, r.Cell.Column, r.Suggested))
		}
	}
	if len(batch) == 0 {
		return 0, &stream.Diff{Seq: se.str.Seq(), Rows: se.Table.NumRows()}, nil
	}
	diff, err := se.ApplyDeltas(batch)
	if err != nil {
		return 0, nil, err
	}
	return len(batch), diff, nil
}
