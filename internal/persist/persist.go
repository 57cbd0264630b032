// Package persist is the session durability layer: it checkpoints each
// session's full state (binary table snapshot, parameters, rule sets,
// detection state, stream-engine sequence cursor) into a snapshot file
// of its own, journals every applied delta batch to a per-session
// write-ahead log, and rebuilds the whole session registry on startup by
// loading the latest snapshots and replaying the WAL tails through the
// incremental detection engine.
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
//	<dir>/snap/<id>.snap   <id>'s latest checkpoint (format: snapfile.go), replaced
//	                       atomically and alone: a checkpoint costs O(own table)
//	<dir>/wal/<id>.wal     the journal: delta batches since that checkpoint, in two
//	<dir>/wal/<id>.wal.1   alternating segment files (a missing one is an empty one)
//
// A session's files are its image (image.go): a backup is one image.
//
// Every session, sharded or not, journals one record per batch into its
// one WAL (two wal.Logs, one of them taking the appends), keyed by the
// session's global sequence number. A record torn at the tail — the
// expected artifact of a crash mid-journal, before the batch was ever
// acknowledged — is discarded by recovery. Data directories written
// before this layout may still hold <id>.shard<k>.wal files, or the
// store.json that held every session's snapshot as one JSON document;
// Restore refuses either by name rather than reading around it.
//
// Durability protocol: a delta batch is journaled write-ahead (the
// session's engine calls Journal before mutating anything), so a batch is
// either durable in the WAL or was never applied. A checkpoint is a cut
// and a write (checkpoint.go): the cut, on the caller's path, points the
// journal at its empty segment and touches no file; the write, on a
// goroutine of its own, encodes the frozen table, replaces the snapshot
// file and only then empties the segments the snapshot made obsolete. A
// compaction's caller does not wait for the write, a baseline's does. A
// crash anywhere in between leaves the previous snapshot with every
// record after it, or the new one with stale records at or below its
// cursor, which replay skips.
package persist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/wal"
)

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
	dir  string
	opts Options

	mu   sync.Mutex // guards wals (the map, not the states)
	wals map[string]*walState

	// writers counts the checkpoint-write goroutines (checkpoint.go), so
	// Close returns only once every one of them has exited.
	writers sync.WaitGroup
	// crash, set by tests only, is asked at each crash point of a
	// checkpoint write whether the process dies there.
	crash func(crashPoint) bool
}

// walState is the per-session journal bookkeeping. Its lock serializes
// operations on one session's journal; lock ordering is m.mu before
// ws.mu, never the reverse.
type walState struct {
	mu sync.Mutex
	// segs are the journal's two segment files, opened together on the
	// first append; segs[active] takes the appends.
	segs [2]*wal.Log
	journal
	// write is the checkpoint write in flight, nil when there is none; buf
	// is the snapshot file buffer one write hands the next, so that a
	// steady session's checkpoints allocate nothing of the table's size.
	write *checkpointWrite
	buf   []byte
}

// journal is what the manager knows of a session's durable state, kept
// current by its own writes or, after a restart, found by recovery.
type journal struct {
	// Status is the last snapshot that landed and the records journaled
	// since. It is what the admin API reports.
	Status
	// active is the segment that takes the next append.
	active int
	// dirty[i] is set while segment i's file may hold bytes. A state made
	// for an ID this process has not recovered knows nothing of the disk,
	// so it starts with both set.
	dirty [2]bool
}

// Open creates (or reopens) the durability layer rooted at dir.
func Open(dir string, opts Options) (*Manager, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755)
	if err == nil {
		err = os.MkdirAll(filepath.Join(dir, "snap"), 0o755)
	}
	if err == nil && opts.Fsync {
		// The two directory entries must survive power loss too.
		err = wal.SyncDir(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Manager{dir: dir, opts: opts, wals: make(map[string]*walState)}, nil
}

// Dir returns the data directory the manager persists into.
func (m *Manager) Dir() string { return m.dir }

// path maps a file of the layout (imageNames) into the data directory.
func (m *Manager) path(name string) string { return filepath.Join(m.dir, filepath.FromSlash(name)) }

// segPath maps a session ID to its journal's segment file i.
func (m *Manager) segPath(id string, i int) string { return m.path(imageNames(id)[1+i]) }

// snapPath maps a session ID to its snapshot file.
func (m *Manager) snapPath(id string) string { return m.path(imageNames(id)[0]) }

// validID rejects session IDs that would escape the data directory.
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
	ws = &walState{journal: journal{dirty: [2]bool{true, true}}}
	m.wals[id] = ws
	return ws, nil
}

// lookup returns the session's journal bookkeeping, nil when the manager
// tracks none.
func (m *Manager) lookup(id string) *walState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wals[id]
}

// openLog returns the segment that takes the session's appends, opening
// the journal if needed. The caller holds ws.mu. Both segment files are
// created here — and, in fsync mode, the wal directory synced once, so
// their directory entries are durable too — which is why a checkpoint's
// cut never creates a file or syncs a directory.
func (m *Manager) openLog(ws *walState, id string) (*wal.Log, error) {
	if ws.segs[0] == nil {
		first, err := wal.Open(m.segPath(id, 0), false)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		second, err := wal.Open(m.segPath(id, 1), m.opts.Fsync)
		if err != nil {
			first.Close()
			return nil, fmt.Errorf("persist: %w", err)
		}
		ws.segs = [2]*wal.Log{first, second}
	}
	return ws.segs[ws.active], nil
}

// closeLog releases the session's segment handles. The caller holds ws.mu.
func (ws *walState) closeLog() error {
	var first error
	for i, l := range ws.segs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
		ws.segs[i] = nil
	}
	return first
}

// Journal durably appends one delta batch to the session's WAL: one
// wal.Log.Commit (mark, append, fsync, roll back to the mark on failure)
// under the session's journal lock. It is the write-ahead half of
// core.Persister: the session's engine calls it after validating a batch
// and before applying it. There is nothing to coalesce — a session has
// one batch in flight (its engine's lock) and a file of its own — so two
// sessions' commits overlap and fail independently.
func (m *Manager) Journal(ctx context.Context, sessionID string, seq int64, batch stream.Batch) (err error) {
	ctx, endSpan := obs.StartSpan(ctx, "persist.journal")
	defer func() { endSpan(err) }()
	ws, err := m.state(sessionID)
	if err != nil {
		return err
	}
	t0 := time.Now()
	enc, err := wal.Encode(wal.Record{Seq: seq, Batch: batch})
	if err != nil {
		return fmt.Errorf("persist: journal %s: %w", sessionID, err)
	}
	obs.SetSpanAttrs(ctx,
		"session", sessionID,
		"seq", strconv.FormatInt(seq, 10),
		"wal_bytes", strconv.Itoa(len(enc)))
	ws.mu.Lock()
	defer ws.mu.Unlock()
	l, err := m.openLog(ws, sessionID)
	if err != nil {
		return err
	}
	// Set before the append: bytes a failed rollback leaves count.
	ws.dirty[ws.active] = true
	if err := l.Commit(enc, m.opts.Fsync); err != nil {
		return fmt.Errorf("persist: journal %s seq %d: %w", sessionID, seq, err)
	}
	ws.WALRecords++
	walBytes.Add(float64(len(enc)))
	groupBatches.Inc()
	if m.opts.Fsync {
		groupFsyncs.Inc()
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
// compaction threshold, counted from the last cut: the records a
// checkpoint write in flight is folding in are already spoken for (and
// count again should that write fail).
func (m *Manager) CompactionDue(sessionID string) bool {
	ws := m.lookup(sessionID)
	if ws == nil || m.opts.CompactEvery < 0 {
		return false
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	n := ws.WALRecords
	if ws.write != nil {
		n -= ws.write.folded
	}
	return n >= m.opts.CompactEvery
}

// Drop removes every trace of the session: snapshot file and both journal
// segments. It waits out a checkpoint write in flight, which would
// otherwise publish its snapshot after the removal.
func (m *Manager) Drop(sessionID string) error {
	if err := validID(sessionID); err != nil {
		return err
	}
	m.mu.Lock()
	ws := m.wals[sessionID]
	delete(m.wals, sessionID)
	m.mu.Unlock()
	if ws != nil {
		ws.settle()
		ws.closeLog() // the files are removed below; nothing left to lose
		ws.mu.Unlock()
	}
	// Snapshot first, durably: without it no Restore reads the WAL.
	err := os.Remove(m.snapPath(sessionID))
	if err == nil && m.opts.Fsync {
		err = wal.SyncDir(filepath.Join(m.dir, "snap"))
	}
	for i := 0; i < 2 && (err == nil || os.IsNotExist(err)); i++ {
		err = os.Remove(m.segPath(sessionID, i))
	}
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: drop %s: %w", sessionID, err)
	}
	return nil
}

// Close waits for the checkpoint writes in flight and releases the WAL
// file handles. The manager is unusable after.
func (m *Manager) Close() error {
	m.writers.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for id, ws := range m.wals {
		ws.mu.Lock()
		if err := ws.closeLog(); err != nil && first == nil {
			first = err
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

// Status reports a tracked session's persistence state, once a checkpoint
// write in flight has landed or failed.
func (m *Manager) Status(sessionID string) (Status, bool) {
	ws := m.lookup(sessionID)
	if ws == nil {
		return Status{}, false
	}
	ws.settle()
	defer ws.mu.Unlock()
	return ws.Status, true
}

// legacyShardWAL matches the per-shard journal files (<id>.shard<k>.wal)
// of an older layout, which a data directory or a backup is refused for.
var legacyShardWAL = regexp.MustCompile(`\.shard[0-9]+\.wal$`)

// snapExt is the snapshot file extension; a crash mid-checkpoint can
// leave <id>.snap.tmp (wal.WriteFileAtomic's temporary) beside it.
const snapExt = ".snap"

// Restore rehydrates every persisted session into the system: it rebuilds
// each session from its image (image.go), replaying the WAL tail through
// the incremental engine (recomputing the violation set, byte-identical
// to a full detection), reattaches the journal, and returns the sessions
// sorted by ID. Torn WAL tails — the expected artifact of a crash mid
// append — are trimmed off; structurally damaged snapshots are an error.
// Sessions rehydrate independently on up to GOMAXPROCS goroutines; the
// first failing ID's error wins, and none is attached unless all came back.
func (m *Manager) Restore(sys *core.System) ([]*core.Session, error) {
	old := filepath.Join(m.dir, "store.json") // every session's snapshot as one JSON document
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("persist: %s holds the sessions of an older layout, which this release does not read: move them with `anmat backup` from the release that wrote it and `anmat restore` into a release that reads format-1 backups, running with -data, then start this release on that data directory; or delete the file to drop them", old)
	}
	entries, err := os.ReadDir(filepath.Join(m.dir, "wal"))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var legacy []string
	for _, e := range entries {
		if legacyShardWAL.MatchString(e.Name()) {
			legacy = append(legacy, e.Name())
		}
	}
	if len(legacy) > 0 {
		return nil, fmt.Errorf("persist: %s holds per-shard WALs of an older layout (%s) that this release does not read: checkpoint with the release that wrote them, or delete them to drop their batches",
			filepath.Join(m.dir, "wal"), strings.Join(legacy, ", "))
	}
	if entries, err = os.ReadDir(filepath.Join(m.dir, "snap")); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasSuffix(name, snapExt+".tmp"):
			// A checkpoint that died before its rename: never published.
			if err := os.Remove(filepath.Join(m.dir, "snap", name)); err != nil {
				return nil, fmt.Errorf("persist: %w", err)
			}
		case strings.HasSuffix(name, snapExt):
			ids = append(ids, strings.TrimSuffix(name, snapExt))
		}
	}
	sort.Strings(ids)
	sessions := make([]*core.Session, len(ids))
	journals := make([]journal, len(ids))
	errs := make([]error, len(ids))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, id := range ids {
		slots <- struct{}{}
		wg.Add(1)
		go func() { // rebuild touches no manager state
			defer func() { <-slots; wg.Done() }()
			img, err := m.readImage(id)
			if err == nil {
				trim := func(seg int, size int64) error { return os.Truncate(m.segPath(id, seg), size) }
				if sessions[i], journals[i], err = img.rebuild(sys, nil, trim); err != nil {
					err = fmt.Errorf("persist: %s: %w", m.dir, err)
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, se := range sessions {
		ws, err := m.state(se.ID)
		if err != nil {
			return nil, err
		}
		ws.mu.Lock()
		ws.journal = journals[i]
		ws.mu.Unlock()
		se.SetPersist(m)
	}
	return sessions, nil
}
