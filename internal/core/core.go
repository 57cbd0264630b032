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
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
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

// CheckRatio reports an error unless v, the parameter named name, is a
// number in [0, 1] — both Params fields are ratios, and NaN or ±Inf is
// not one.
func CheckRatio(name string, v float64) error {
	if !(v >= 0 && v <= 1) { // NaN fails both comparisons
		return fmt.Errorf("%s=%v: want a number in [0, 1]", name, v)
	}
	return nil
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
	// Shards is the shard count of every session's incremental detection
	// engine (0 or 1 = one engine, no sharding). With K > 1 the session's
	// table is hash-partitioned on block keys across K per-shard engines
	// (see internal/shard); results are byte-identical at every K. Where
	// engines run is a property of the deployment: there is no
	// per-session override, and a restored session takes this system's
	// topology, not the one its snapshot was written under.
	Shards int
	// Workers, when non-empty, runs every session's incremental engine in
	// distributed mode: one shard per worker base URL, driven over the
	// /shard/v1 HTTP API (see internal/cluster). Takes precedence over
	// Shards; results stay byte-identical at any worker count.
	//
	// A worker holds exactly one shard state, so the worker set serves
	// exactly one distributed session: the first session to build its
	// engine owns the workers until it is closed (Session.Close), and any
	// other session fails to build its engine with a clear error.
	Workers []string
	// ClusterSpares are standby worker base URLs the distributed session
	// fails over to when a primary stops answering, each handed out at
	// most once. An endpoint also listed in Workers is a primary, never a
	// spare.
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

	// cmu guards the cluster bookkeeping below.
	cmu sync.Mutex
	// workerOwner is the session whose engine the workers serve, "" until
	// a distributed session builds one. A worker carries exactly one shard
	// state, so a second session booting them would silently clobber the
	// first; ownership lasts until the owner is closed.
	workerOwner string
	// spares is the failover pool seeded from SystemConfig.ClusterSpares,
	// primaries removed; each endpoint is handed out at most once.
	spares []string
}

// NewSystemWith builds a system over the store (docstore.NewMem for
// ephemeral sessions) with explicit defaults; DefaultSystemConfig gives
// the demo's. A zero-value Discovery config is replaced by
// discovery.Default(); a config with any field set is taken verbatim.
func NewSystemWith(store *docstore.Store, cfg SystemConfig) *System {
	if cfg.Discovery.IsZero() {
		cfg.Discovery = discovery.Default()
	}
	// Params are taken verbatim — zero values are a legitimate request
	// for no coverage floor / zero tolerated violations.
	s := &System{store: store, cfg: cfg}
	for _, ep := range cfg.ClusterSpares {
		// Handing a primary out on failover would overwrite the shard it
		// already serves.
		if !slices.Contains(cfg.Workers, ep) {
			s.spares = append(s.spares, ep)
		}
	}
	return s
}

// claimWorkers makes the session the workers' owner, erroring when
// another session already is: a worker holds exactly one shard state, so
// a second session's engine would silently replace the first one's (see
// SystemConfig.Workers). Re-claiming by the owner (an engine rebuild) is
// a no-op.
func (s *System) claimWorkers(sessionID string) error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.workerOwner != "" && s.workerOwner != sessionID {
		return fmt.Errorf("the workers already serve session %s's shards; a worker set serves one distributed session", s.workerOwner)
	}
	s.workerOwner = sessionID
	return nil
}

// claimSpare is the distributed engine's failover hook (cluster.Options
// Respawn): it hands out the next standby endpoint for the dead shard,
// or "" when none is left. A spare is handed out at most once, so two
// failovers never restore conflicting shard states onto one endpoint.
func (s *System) claimSpare(int) string {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if len(s.spares) == 0 {
		return ""
	}
	ep := s.spares[0]
	s.spares = s.spares[1:]
	return ep
}

// Defaults returns the system-wide default session parameters.
func (s *System) Defaults() Params { return s.cfg.Params }

// CreateProject registers a project ("new users can create their own
// projects") and returns its id. A store with a path is written through
// before CreateProject returns, as RunDiscovery writes a rule set: the
// error is the write's.
func (s *System) CreateProject(name string) (int64, error) { return s.store.AddProject(name) }

// Projects lists the registered project names, sorted.
func (s *System) Projects() []string { return s.store.ProjectNames() }

// LoadPFDs returns the rules of the table name's last discovery run, or
// every name's for "" — the demo's flow of reloading rules mined in an
// earlier session instead of re-running discovery.
func (s *System) LoadPFDs(tableName string) []*pfd.PFD { return s.store.Rules(tableName) }

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
	// DetectStats records, per active rule, what the boot of the
	// session's engine cost: tableau rows, violations rendered and busy
	// time (filled by RunDetection; see detect.Run).
	DetectStats []detect.RuleStats
	DMVs        []DMVFinding

	// detected records whether detection has run at least once, so API
	// layers can distinguish "zero violations" from "never detected".
	detected bool

	// repairedTable and repairedVersion record which table, at which
	// Version, RunRepairs computed Repairs for, so CurrentRepairs can tell
	// when a delta has moved the table on since.
	repairedTable   *table.Table
	repairedVersion int64

	// str is the session's incremental detection engine — a single
	// stream.Engine, or a shard or cluster coordinator (see newStreamer) —
	// booted by detection and the one producer of Violations; strRules
	// snapshots the rule set it was built over so a Confirm/UseRules
	// change triggers a rebuild.
	str      Streamer
	strRules []*pfd.PFD
	// strNextBase carries the sequence base of an engine whose baseline
	// checkpoint failed, so the retry continues the same timeline instead
	// of restarting cursors at zero.
	strNextBase int64
	// unimaged marks an engine booted with no persister attached, whose
	// baseline no snapshot holds yet (see detection).
	unimaged bool

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

// Shards is the shard count of the session's incremental engine: the
// worker count in distributed mode, else the system's Shards, and never
// below 1.
func (se *Session) Shards() int {
	if w := se.Workers(); len(w) > 0 {
		return len(w)
	}
	return max(se.sys.cfg.Shards, 1)
}

// Workers is the system's worker list; empty means the session's engine
// runs in-process.
func (se *Session) Workers() []string { return se.sys.cfg.Workers }

// discoveryConfig resolves the effective discovery configuration: the
// system base with the session Params overlaid. SystemConfig.Parallelism
// is the one pipeline-wide worker knob, so discovery inherits it unless
// the discovery config sets its own.
func (se *Session) discoveryConfig() discovery.Config {
	cfg := se.sys.cfg.Discovery
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
// A repairs stage reads the detector the detection stage of the same call
// booted the engine from; nothing else outlives the call.
func (se *Session) RunStages(ctx context.Context, stages ...Stage) error {
	var det *detect.Detector
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
			det, err = se.detection(ctx)
		case StageRepairs:
			_, err = se.repairs(ctx, det)
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
		suspects := dmv.Detect(se.Table.InternedColumn(i))
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
// has seen, not by the runs. A store with a path is written through
// before RunDiscovery returns. Cancelling ctx aborts mining mid-candidate
// with an error wrapping context.Canceled.
func (se *Session) RunDiscovery(ctx context.Context) ([]*pfd.PFD, error) {
	var tp *profile.TableProfile // nil: discovery profiles the table itself
	if se.profiledTable == se.Table && se.profiledVersion == se.Table.Version() {
		tp = &se.Profile // the profile stage already did, on exactly these rows
	}
	res, err := discovery.Discover(ctx, se.Table, tp, se.discoveryConfig())
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Discovered = res.PFDs
	se.Stats = res.Stats
	if err := se.sys.store.ReplaceRules(se.Table.Name(), res.PFDs); err != nil {
		return nil, fmt.Errorf("session %s: store rules: %w", se.ID, err)
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

// rules returns the active rule set: the confirmed PFDs, or every
// discovered one when none were explicitly confirmed.
func (se *Session) rules() []*pfd.PFD {
	if se.Confirmed != nil {
		return se.Confirmed
	}
	return se.Discovered
}

// RunDetection evaluates the active rules by booting the session's
// incremental engine over them (see detection), or keeping it while it
// is current: Violations is the engine's sorted set, DetectStats its
// boot's cost. Cancelling ctx stops the boot between tableau rows.
func (se *Session) RunDetection(ctx context.Context) ([]pfd.Violation, error) {
	if _, err := se.detection(ctx); err != nil {
		return nil, err
	}
	return se.Violations, nil
}

// RunRepairs derives repair suggestions from the confirmed PFDs with the
// system's parallelism, checking ctx between rule batches.
func (se *Session) RunRepairs(ctx context.Context) ([]detect.Repair, error) {
	return se.repairs(ctx, nil)
}

// repairs derives the suggestions from det, the detector the engine
// booted from in the same run, or from a fresh one.
func (se *Session) repairs(ctx context.Context, det *detect.Detector) ([]detect.Repair, error) {
	if det == nil || det.Stale() {
		det = detect.New(se.Table, detect.Options{})
	}
	out, err := det.RepairsAllContext(ctx, se.rules(), se.sys.cfg.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	se.Repairs = out
	se.repairedTable, se.repairedVersion = se.Table, se.Table.Version()
	return out, nil
}

// CurrentRepairs returns repair suggestions for the table as it is now:
// Repairs, re-derived first when a delta has changed the table since
// RunRepairs computed them (a delete renumbers rows, so old suggestions
// would name other tuples). A session whose repairs stage never ran
// returns Repairs as it is.
func (se *Session) CurrentRepairs(ctx context.Context) ([]detect.Repair, error) {
	if se.repairedTable == nil || (se.repairedTable == se.Table && se.repairedVersion == se.Table.Version()) {
		return se.Repairs, nil
	}
	return se.RunRepairs(ctx)
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

// Streamer is the incremental-detection surface shared by the single
// stream.Engine and the sharded shard.Coordinator: apply delta batches,
// read the maintained violation set, and resolve sequence cursors.
// Session.Stream returns one or the other depending on the session's
// shard count; everything downstream — the HTTP API, the CLI
// follow mode, the durability layer — programs against this surface.
type Streamer interface {
	// ApplyCtx journals the batch through the sink (when one is set) and
	// applies it; the engine's spans join the context's trace.
	ApplyCtx(context.Context, stream.Batch) (*stream.Diff, error)
	// Violations is the engine's shared sorted snapshot: read-only.
	Violations() []pfd.Violation
	Since(int64) (*stream.Diff, error)
	Seq() int64
	Stale() bool
	SetSink(func(context.Context, int64, stream.Batch) error)
}

// newStreamer boots an engine over the rules at the base sequence: a
// cluster coordinator with worker endpoints, a shard coordinator at
// K > 1, a single engine otherwise (and for a rule-less session, which
// has nothing to distribute) — byte-identical in all three — plus a
// single engine's detector.
func (se *Session) newStreamer(ctx context.Context, rules []*pfd.PFD, base int64) (Streamer, *detect.Detector, error) {
	if w := se.Workers(); len(w) > 0 && len(rules) > 0 {
		// The workers serve one session: claim them (until Close) so a
		// second distributed session cannot boot over them and clobber
		// this one's shard state.
		if err := se.sys.claimWorkers(se.ID); err != nil {
			return nil, nil, err
		}
		dir := ""
		if d := se.sys.cfg.ClusterDir; d != "" {
			dir = filepath.Join(d, se.ID)
		}
		c, err := cluster.New(se.Table, rules, w, cluster.Options{
			BaseSeq: base,
			Dir:     dir,
			Respawn: se.sys.claimSpare,
		})
		return c, nil, err
	}
	if k := se.Shards(); k > 1 {
		c, err := shard.NewWith(se.Table, rules, k, shard.Config{BaseSeq: base, Parallelism: se.sys.cfg.Parallelism})
		return c, nil, err
	}
	det := detect.New(se.Table, detect.Options{})
	eng, err := stream.Boot(ctx, det, rules, se.sys.cfg.Parallelism, stream.EngineOptions{BaseSeq: base})
	return eng, det, err
}

// DetectionCurrent reports whether the session's violations come from an
// engine booted over its active rules and its table as it is: false when
// detection never ran, or failed and left the session as it was.
func (se *Session) DetectionCurrent() bool {
	return se.str != nil && !se.str.Stale() && slices.Equal(se.strRules, se.rules()) // pointer identity: sessions share *pfd.PFD values
}

// detection is the detection stage: it keeps a current engine, or boots
// a replacement over the active rules one past the old one's sequence
// timeline, so the old cursors resolve to a reset snapshot, and closes
// the old one. With a persister the new baseline is durable before
// detection succeeds — a fresh engine breaks WAL continuity. When that
// checkpoint fails, both engines are closed and dropped (a cluster
// coordinator's workers already serve the replacement's epoch, so the
// old one is dead) and the next call boots again on the same timeline;
// the violations stay the old ones. A single engine's detector comes
// back for the repairs stage of the same run.
func (se *Session) detection(ctx context.Context) (*detect.Detector, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session %s: detection: %w", se.ID, err)
	}
	if se.DetectionCurrent() {
		if se.unimaged && se.persist != nil {
			if err := se.Checkpoint(); err != nil {
				return nil, err
			}
		}
		se.Violations = se.str.Violations()
		return nil, nil
	}
	base := se.strNextBase
	if se.str != nil && se.str.Seq()+1 > base {
		base = se.str.Seq() + 1
	}
	rules := se.rules()
	str, det, err := se.newStreamer(ctx, rules, base)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", se.ID, err)
	}
	old, detected := se.str, se.detected
	if se.persist != nil {
		str.SetSink(se.journalSink())
		se.str, se.strRules, se.detected = str, rules, true // what the snapshot images
		if err := se.Checkpoint(); err != nil {
			closeEngine(str)
			closeEngine(old)
			se.str, se.strRules, se.detected = nil, nil, detected
			se.strNextBase = base
			return nil, err
		}
	}
	closeEngine(old)
	se.use(str, rules)
	se.strNextBase, se.unimaged = 0, se.persist == nil
	return det, nil
}

// closeEngine releases what an engine holds outside the process's
// memory: a cluster coordinator's failover store.
func closeEngine(str Streamer) {
	if c, ok := str.(io.Closer); ok {
		_ = c.Close()
	}
}

// Close releases the session's engine and, when the session owns the
// workers, the workers, so another distributed session can boot them.
// A deleted session is closed; it serves nothing afterwards.
func (se *Session) Close() {
	closeEngine(se.str)
	se.str, se.strRules = nil, nil
	se.sys.cmu.Lock()
	defer se.sys.cmu.Unlock()
	if se.sys.workerOwner == se.ID {
		se.sys.workerOwner = ""
	}
}

// use makes a freshly booted engine the session's: its sorted set is the
// session's violations, and its boot's cost the detection stats — at
// K > 1 the shards' boots summed (a tuple several shards host renders its
// constant-row violations on each).
func (se *Session) use(str Streamer, rules []*pfd.PFD) {
	se.str, se.strRules, se.detected = str, rules, true
	se.Violations = str.Violations()
	st := se.EngineStats()
	if st.Stream != nil {
		se.DetectStats = st.Stream.Boot
		return
	}
	se.DetectStats = make([]detect.RuleStats, len(rules))
	for i, p := range rules {
		se.DetectStats[i] = detect.RuleStats{PFDID: p.ID(), Rows: p.Tableau.Len()}
		for _, sh := range st.Sharded.PerShard {
			if i < len(sh.Engine.Boot) { // a shard whose stats read failed has none
				se.DetectStats[i].Violations += sh.Engine.Boot[i].Violations
				se.DetectStats[i].Duration += sh.Engine.Boot[i].Duration
			}
		}
	}
}

// ErrNoRules is Stream's refusal for a session without active rules: an
// engine over none has no deltas to evaluate.
var ErrNoRules = errors.New("no rules to stream against (run discovery or UseRules first)")

// Stream returns the session's incremental detection engine: the one
// detection booted, booted first when none is current (detection never
// ran, the table was mutated outside the engine, or the rule set
// changed). An append or a cell update then costs in proportion to what
// it changes (stream.NewEngineFrom names the exceptions).
func (se *Session) Stream() (Streamer, error) {
	if len(se.rules()) == 0 {
		return nil, fmt.Errorf("session %s: %w", se.ID, ErrNoRules)
	}
	if _, err := se.detection(context.TODO()); err != nil {
		return nil, err
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

// ApplyDeltasCtx routes one delta batch through the session's incremental
// engine and refreshes the session's violation set from the maintained
// one (identical to what a full re-detection would produce, without
// running it). The engine's spans — apply, journal, shard fan-out, worker
// RPCs — attach to the context's active trace, so one server request
// yields one tree.
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

// ApplyRepairs writes repair suggestions into the session's table as cell
// deltas through the session's incremental engine (see Stream), so they
// are journaled like any batch and their violation diff falls out for
// free. The batch's spans join ctx's trace. Returns the number of changed
// cells and the diff, never nil.
func (se *Session) ApplyRepairs(ctx context.Context, rs []detect.Repair) (int, *stream.Diff, error) {
	eng, err := se.Stream()
	if err != nil {
		return 0, nil, err
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
		return 0, &stream.Diff{Seq: eng.Seq(), Rows: se.Table.NumRows()}, nil
	}
	diff, err := se.ApplyDeltasCtx(ctx, batch)
	if err != nil {
		return 0, nil, err
	}
	return len(batch), diff, nil
}
