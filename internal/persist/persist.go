// Package persist is the session durability layer: it checkpoints each
// session's full state (binary table snapshot, parameters, rule sets,
// detection state, stream-engine sequence cursor) into the document
// store, journals every applied delta batch to a per-session write-ahead
// log, and rebuilds the whole session registry on startup by loading the
// latest snapshots and replaying the WAL tails through the incremental
// detection engine.
//
// The recovery invariant — property-tested with simulated crashes at
// arbitrary batch boundaries and torn final WAL records — is that a
// recovered session's violation set is byte-identical to a fresh full
// detection over the recovered table, and that sequence cursors issued
// before the crash resolve to the exact diff (or a flagged snapshot
// reset when they predate the retained history).
//
// Layout under the data directory:
//
//	<dir>/store.json      document store holding one snapshot per session
//	<dir>/wal/<id>.wal    delta batches journaled since <id>'s checkpoint
//
// Every session, sharded or not, journals one record per batch into its
// one WAL (a wal.Log), keyed by the session's global sequence number. A
// record torn at the tail — the expected artifact of a crash
// mid-journal, before the batch was ever acknowledged — is discarded by
// recovery. Data directories written before this layout may still hold
// <id>.shard<k>.wal files; Restore refuses them by name rather than
// reading around them.
//
// Durability protocol: a delta batch is journaled write-ahead (the
// session's engine calls Journal before mutating anything), so a batch is
// either durable in the WAL or was never applied. Checkpoints write the
// snapshot first and truncate the WAL after; a crash between the two
// leaves stale WAL records at or below the snapshot's cursor, which
// replay skips.
//
// Cost note: snapshots live in one docstore file, so a checkpoint
// rewrites every session's snapshot (journal appends — the hot path —
// touch only the session's own WAL). With many large sessions, moving to
// one snapshot file per session would make checkpoints O(own table);
// the single-file layout follows the docstore the rest of the system
// already uses.
package persist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/wal"
)

// CollSnapshots is the document-store collection holding one snapshot
// document per session.
const CollSnapshots = "session_snapshots"

// DefaultCompactEvery is the number of journaled batches after which a
// session's WAL is folded into a fresh snapshot.
const DefaultCompactEvery = 64

// Options tunes a Manager.
type Options struct {
	// CompactEvery is the journal length that triggers snapshot
	// compaction (default DefaultCompactEvery; negative disables).
	CompactEvery int
	// Fsync forces fsync on every WAL append and snapshot flush, making
	// durability survive power loss rather than just process death.
	Fsync bool
}

// Manager implements core.Persister over a data directory. It is safe for
// concurrent use by distinct sessions: the manager lock only guards the
// session map, and each session's journal has its own lock, so sessions
// append (and fsync) their WALs in parallel.
type Manager struct {
	dir   string
	opts  Options
	store *docstore.Store

	mu   sync.Mutex // guards wals (the map, not the states)
	wals map[string]*walState

	// gc is the group committer: concurrent Journal calls coalesce into
	// shared write+fsync rounds (groupcommit.go).
	gc groupCommitter

	// storeMu serializes snapshot-document rewrites (Checkpoint, Drop)
	// across sessions. Without it, session A's Flush could durably write
	// the store in the window where session B's snapshot is deleted but
	// not yet re-inserted — a crash then would silently lose B. Journal
	// appends (the hot path) never take it.
	storeMu sync.Mutex
}

// walState is the per-session journal bookkeeping. Its lock serializes
// operations on one session's journal; lock ordering is m.mu before
// ws.mu, never the reverse.
type walState struct {
	mu sync.Mutex
	// log is the session's open journal, opened lazily on first append.
	log *wal.Log
	// records counts batches journaled (or replayed) since the last
	// checkpoint; it is the compaction trigger.
	records int
	// ckptSeq is the sequence cursor of the last durable checkpoint.
	ckptSeq int64
}

// Open creates (or reopens) the durability layer rooted at dir.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	store, err := docstore.OpenWith(filepath.Join(dir, "store.json"), docstore.Options{Fsync: opts.Fsync})
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Manager{dir: dir, opts: opts, store: store, wals: make(map[string]*walState)}, nil
}

// Dir returns the data directory the manager persists into.
func (m *Manager) Dir() string { return m.dir }

// walPath maps a session ID to its journal file.
func (m *Manager) walPath(id string) string {
	return filepath.Join(m.dir, "wal", id+".wal")
}

// validID rejects session IDs that would escape the wal directory.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	return nil
}

// state returns (creating if needed) the session's journal bookkeeping.
// The WAL opens lazily on first append (see openLog).
func (m *Manager) state(id string) (*walState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := m.wals[id]
	if ws != nil {
		return ws, nil
	}
	if err := validID(id); err != nil {
		return nil, err
	}
	ws = &walState{}
	m.wals[id] = ws
	return ws, nil
}

// openLog returns (opening if needed) the session's journal. The caller
// holds ws.mu. In fsync mode the wal directory is synced so a freshly
// created file's directory entry is durable too.
func (m *Manager) openLog(ws *walState, id string) (*wal.Log, error) {
	if ws.log == nil {
		l, err := wal.Open(m.walPath(id), m.opts.Fsync)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		ws.log = l
	}
	return ws.log, nil
}

// Journal durably appends one delta batch to the session's WAL through
// the group committer (groupcommit.go). It is the write-ahead half of
// core.Persister: the session's engine calls it after validating a batch
// and before applying it.
func (m *Manager) Journal(ctx context.Context, sessionID string, seq int64, batch stream.Batch) error {
	ctx, endSpan := obs.StartSpan(ctx, "persist.journal")
	ws, err := m.state(sessionID)
	if err != nil {
		endSpan(err)
		return err
	}
	t0 := time.Now()
	enc, err := wal.Encode(wal.Record{Seq: seq, Batch: batch})
	if err != nil {
		err = fmt.Errorf("persist: journal %s: %w", sessionID, err)
		endSpan(err)
		return err
	}
	obs.SetSpanAttrs(ctx,
		"session", sessionID,
		"seq", strconv.FormatInt(seq, 10),
		"wal_bytes", strconv.Itoa(len(enc)))
	err = m.commit(&commitReq{ws: ws, id: sessionID, seq: seq, enc: enc, done: make(chan struct{})})
	endSpan(err)
	if err != nil {
		return err
	}
	walAppendDur.Observe(time.Since(t0).Seconds())
	return nil
}

// JournalSharded forwards to Journal: a sharded session journals into the
// same one WAL. bench/ (frozen this PR) still calls it; the next
// benchmark PR deletes it.
func (m *Manager) JournalSharded(ctx context.Context, sessionID string, _ int, seq int64, batch stream.Batch) error {
	return m.Journal(ctx, sessionID, seq, batch)
}

// CompactionDue reports whether the session's journal has reached the
// compaction threshold.
func (m *Manager) CompactionDue(sessionID string) bool {
	if m.opts.CompactEvery < 0 {
		return false
	}
	m.mu.Lock()
	ws := m.wals[sessionID]
	m.mu.Unlock()
	if ws == nil {
		return false
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.records >= m.opts.CompactEvery
}

// Checkpoint durably replaces the session's snapshot document and resets
// its WAL. Snapshot first, truncate after: a crash between the two leaves
// only stale WAL records, which replay skips by sequence number.
func (m *Manager) Checkpoint(snap *core.SessionSnapshot) error {
	ws, err := m.state(snap.ID)
	if err != nil {
		return err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	t0 := time.Now()
	folded := ws.records > 0
	// Marshal once: the blob becomes the stored document and sizes the
	// checkpoint histogram.
	blob, err := json.Marshal(snap)
	var doc docstore.Doc
	if err == nil {
		err = json.Unmarshal(blob, &doc)
	}
	if err != nil {
		return fmt.Errorf("persist: store snapshot %s: %w", snap.ID, err)
	}
	m.storeMu.Lock()
	m.store.Delete(CollSnapshots, docstore.Filter{"session": snap.ID})
	m.store.Insert(CollSnapshots, doc)
	flushErr := m.store.Flush()
	m.storeMu.Unlock()
	if flushErr != nil {
		return fmt.Errorf("persist: flush snapshot %s: %w", snap.ID, flushErr)
	}
	// Truncate by path: the WAL may not be open yet, and an open O_APPEND
	// handle keeps working — its next write lands at the new end of file.
	if err := os.Truncate(m.walPath(snap.ID), 0); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: reset wal %s: %w", snap.ID, err)
	}
	ws.records = 0
	ws.ckptSeq = snap.Seq
	checkpoints.Inc()
	if folded {
		compactions.Inc()
	}
	checkpointBytes.Observe(float64(len(blob)))
	checkpointDur.Observe(time.Since(t0).Seconds())
	return nil
}

// Drop removes every trace of the session: snapshot document and WAL.
func (m *Manager) Drop(sessionID string) error {
	if err := validID(sessionID); err != nil {
		return err
	}
	m.mu.Lock()
	ws := m.wals[sessionID]
	delete(m.wals, sessionID)
	m.mu.Unlock()
	if ws != nil {
		ws.mu.Lock()
		if ws.log != nil {
			ws.log.Close() // the file is removed below; nothing left to lose
		}
		ws.mu.Unlock()
	}
	m.storeMu.Lock()
	removed := m.store.Delete(CollSnapshots, docstore.Filter{"session": sessionID})
	var flushErr error
	if removed > 0 {
		flushErr = m.store.Flush()
	}
	m.storeMu.Unlock()
	if flushErr != nil {
		return fmt.Errorf("persist: drop %s: %w", sessionID, flushErr)
	}
	if err := os.Remove(m.walPath(sessionID)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: drop %s: %w", sessionID, err)
	}
	return nil
}

// Close releases the WAL file handles. The manager is unusable after.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for id, ws := range m.wals {
		ws.mu.Lock()
		if ws.log != nil {
			if err := ws.log.Close(); err != nil && first == nil {
				first = err
			}
		}
		ws.mu.Unlock()
		delete(m.wals, id)
	}
	return first
}

// Status is one session's persistence health, surfaced by the server's
// admin API.
type Status struct {
	// CheckpointSeq is the sequence cursor of the last durable snapshot.
	CheckpointSeq int64 `json:"checkpoint_seq"`
	// WALRecords is the number of delta batches journaled (or replayed)
	// since that snapshot — the replay cost of a crash right now.
	WALRecords int `json:"wal_records"`
}

// Status reports a tracked session's persistence state.
func (m *Manager) Status(sessionID string) (Status, bool) {
	m.mu.Lock()
	ws := m.wals[sessionID]
	m.mu.Unlock()
	if ws == nil {
		return Status{}, false
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return Status{CheckpointSeq: ws.ckptSeq, WALRecords: ws.records}, true
}

var legacyShardWAL = regexp.MustCompile(`\.shard[0-9]+\.wal$`)

// LegacyShardWAL reports whether name is a per-shard journal file
// (<id>.shard<k>.wal) of the kind sharded sessions wrote before every
// session journaled into its one <id>.wal. Recovery no longer merges
// them, so a data directory or backup that still carries one is refused
// by name.
func LegacyShardWAL(name string) bool { return legacyShardWAL.MatchString(name) }

// Restore rehydrates every persisted session into the system: for each
// snapshot document it rebuilds the session, replays the WAL tail through
// the incremental engine (recomputing the violation set, byte-identical
// to a full detection), reattaches the journal, and returns the sessions
// sorted by ID. Torn WAL tails — the expected artifact of a crash mid
// append — are discarded; structurally damaged snapshots are an error.
func (m *Manager) Restore(sys *core.System) ([]*core.Session, error) {
	entries, err := os.ReadDir(filepath.Join(m.dir, "wal"))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var legacy []string
	for _, e := range entries {
		if LegacyShardWAL(e.Name()) {
			legacy = append(legacy, e.Name())
		}
	}
	if len(legacy) > 0 {
		return nil, fmt.Errorf("persist: %s holds per-shard WALs of an older layout (%s) that this release does not read: checkpoint with the release that wrote them, or delete them to drop their batches",
			filepath.Join(m.dir, "wal"), strings.Join(legacy, ", "))
	}
	docs := m.store.Find(CollSnapshots, nil)
	out := make([]*core.Session, 0, len(docs))
	for _, d := range docs {
		snap, err := decodeSnapshot(d)
		if err != nil {
			return nil, err
		}
		se, err := sys.RestoreSession(snap)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		// The replayable suffix: the contiguous run of batches right after
		// the snapshot's cursor; the file is trimmed to its clean prefix.
		recs, err := wal.Replay(m.walPath(snap.ID), snap.Seq)
		if err != nil {
			return nil, fmt.Errorf("persist: wal %s: %w", snap.ID, err)
		}
		if err := se.ReplayJournal(snap.Seq, wal.Batches(recs)); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		ws, err := m.state(snap.ID)
		if err != nil {
			return nil, err
		}
		ws.mu.Lock()
		ws.records = len(recs)
		ws.ckptSeq = snap.Seq
		ws.mu.Unlock()
		se.SetPersist(m)
		out = append(out, se)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// decodeSnapshot converts a snapshot document back to the typed form.
func decodeSnapshot(d docstore.Doc) (*core.SessionSnapshot, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot doc %v: %w", d[docstore.IDField], err)
	}
	var snap core.SessionSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("persist: snapshot doc %v: %w", d[docstore.IDField], err)
	}
	if snap.ID == "" {
		return nil, fmt.Errorf("persist: snapshot doc %v: missing session id", d[docstore.IDField])
	}
	// A tampered store must not smuggle a path-traversing ID into the WAL
	// path construction — wal.Replay truncates the file it resolves to.
	if err := validID(snap.ID); err != nil {
		return nil, fmt.Errorf("persist: snapshot doc %v: %w", d[docstore.IDField], err)
	}
	return &snap, nil
}
