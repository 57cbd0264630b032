// Session durability hooks: the snapshot/restore surface the persistence
// layer (internal/persist) builds on. A SessionSnapshot is everything
// needed to rebuild an equivalent session — table bytes, parameters, rule
// sets, detection state, and the stream-engine sequence cursor — and a
// Persister is the sink sessions journal their delta batches into.
//
// The division of labor: core decides *when* to checkpoint and journal
// (on engine rebuilds, after delta batches, when compaction is due); the
// Persister decides *how* bytes become durable. Violations are not
// snapshotted — they are a pure function of (table, rules), so restore
// recomputes them by bootstrapping the incremental engine, and the
// crash-recovery tests assert the result is byte-identical to a fresh
// full detection.
package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// SessionSnapshot is the durable image of one session at a checkpoint.
// The persistence layer and the backup tar both store it as a JSON
// header without the table, and the table bytes raw beside it. The table
// travels one way per direction: a snapshot taken from a live session
// (Session.Snapshot) carries Table, a frozen view whoever writes it out
// encodes — possibly after the session has moved on; one read back from
// a snapshot file or a backup carries TableData.
type SessionSnapshot struct {
	ID      string `json:"session"`
	Project string `json:"project"`
	Params  Params `json:"params"`
	// TableName duplicates the encoded table's name for filterability.
	TableName string `json:"table"`
	// Table is the session's table frozen at snapshot time (outbound).
	Table *table.View `json:"-"`
	// TableData is the binary table snapshot, table.EncodeBinaryBytes'
	// format (inbound).
	TableData []byte `json:"table_data"`
	// Discovered and Confirmed are the session's rule sets. ConfirmedSet
	// distinguishes "nothing explicitly confirmed" (nil — detection runs
	// over Discovered) from "confirmed an empty set".
	Discovered   []*pfd.PFD `json:"discovered,omitempty"`
	Confirmed    []*pfd.PFD `json:"confirmed,omitempty"`
	ConfirmedSet bool       `json:"confirmed_set"`
	// Detected records whether detection ever ran; restore only rebuilds
	// the violation set (via the stream engine) when it did.
	Detected bool `json:"detected"`
	// Seq is the stream engine's sequence cursor at checkpoint time (0
	// when no engine exists). WAL records at or below it are already
	// folded into TableData and are skipped on replay.
	Seq int64 `json:"seq"`
	// Shards is the session's resolved shard count at checkpoint time
	// (>= 1), so recovery rebuilds the same engine topology: a sharded
	// session's coordinator is rebuilt shard by shard and re-merged.
	Shards int `json:"shards,omitempty"`
	// Compaction marks a checkpoint taken only to shorten the journal: the
	// engine it images is the one the journal's records were applied to,
	// so snapshot + journal on disk already describe this state and the
	// persister may write the snapshot after Checkpoint has returned. Any
	// other checkpoint is a new baseline and must be durable first.
	Compaction bool `json:"-"`
}

// AppendTable appends the snapshot's table, in the binary snapshot
// format, to dst — whichever way the snapshot carries it.
func (s *SessionSnapshot) AppendTable(dst []byte) []byte {
	if s.Table != nil {
		return s.Table.AppendBinary(dst)
	}
	return append(dst, s.TableData...)
}

// PersistenceError marks a durability-layer failure — journaling or
// checkpointing — as opposed to a rejection of the caller's input. API
// layers use it to map errors to server-side (5xx) rather than
// bad-request statuses; errors.As unwraps through the pipeline's
// wrapping.
type PersistenceError struct {
	Err error
}

func (e *PersistenceError) Error() string { return e.Err.Error() }
func (e *PersistenceError) Unwrap() error { return e.Err }

// Persister is the durability sink a session reports to. Implementations
// must be safe for concurrent use by distinct sessions.
type Persister interface {
	// Journal durably appends one delta batch before the session applies
	// it (write-ahead). An error aborts the batch.
	Journal(ctx context.Context, sessionID string, seq int64, batch stream.Batch) error
	// Checkpoint replaces the session's snapshot with snap and drops the
	// journal records it folds in. It returns once the snapshot is
	// durable — or, for a snap marked Compaction, possibly before: the
	// journal then keeps every record until the snapshot has landed. snap
	// is the persister's from here on (it releases the table view).
	Checkpoint(snap *SessionSnapshot) error
	// CompactionDue reports whether the session's journal has grown past
	// the compaction threshold since its last checkpoint.
	CompactionDue(sessionID string) bool
}

// SetPersist attaches a durability sink to the session: future delta
// batches are journaled write-ahead, and engine rebuilds checkpoint a
// fresh baseline. An existing engine is wired up immediately. Pass nil to
// detach.
func (se *Session) SetPersist(p Persister) {
	se.persist = p
	if se.str != nil {
		se.str.SetSink(se.journalSink())
	}
}

// journalSink adapts the session's persister to the engine's write-ahead
// hook: one journal record per batch, whatever the engine's topology.
func (se *Session) journalSink() func(context.Context, int64, stream.Batch) error {
	if se.persist == nil {
		return nil
	}
	id, p := se.ID, se.persist
	return func(ctx context.Context, seq int64, batch stream.Batch) error {
		if err := p.Journal(ctx, id, seq, batch); err != nil {
			return &PersistenceError{Err: err}
		}
		return nil
	}
}

// Snapshot captures the session's durable state. The caller must hold the
// session's external lock (sessions are not safe for concurrent use), so
// the frozen table and the engine cursor are mutually consistent. The
// only O(rows) work is the view's copy of the row headers; the table is
// encoded by whoever writes the snapshot out.
func (se *Session) Snapshot() *SessionSnapshot {
	snap := &SessionSnapshot{
		ID:           se.ID,
		Project:      se.Project,
		Params:       se.Params,
		TableName:    se.Table.Name(),
		Table:        se.Table.Freeze(),
		Discovered:   se.Discovered,
		Confirmed:    se.Confirmed,
		ConfirmedSet: se.Confirmed != nil,
		Detected:     se.detected,
		Shards:       se.Shards(),
	}
	if se.str != nil {
		snap.Seq = se.str.Seq()
		if se.str.Stale() || !samePFDs(se.strRules, se.rules()) {
			// The engine no longer describes the session (rules changed,
			// or the table was mutated outside it): a live rebuild would
			// start one past its timeline, and the snapshot must agree —
			// otherwise a recovered engine sits AT the old head seq and a
			// client cursor there resolves to an empty diff instead of
			// the reset the live server would return.
			snap.Seq++
		}
	}
	if se.strNextBase > snap.Seq {
		snap.Seq = se.strNextBase
	}
	return snap
}

// Checkpoint snapshots the session into its persister as a new baseline,
// durable on return. It is a no-op without a persister, so callers can
// invoke it unconditionally at natural checkpoints (pipeline completion,
// rule confirmation).
func (se *Session) Checkpoint() error { return se.checkpoint(false) }

// checkpoint hands the persister a snapshot, marked as a compaction when
// it only folds in batches the live engine journaled and applied.
func (se *Session) checkpoint(compaction bool) error {
	if se.persist == nil {
		return nil
	}
	snap := se.Snapshot()
	snap.Compaction = compaction
	if err := se.persist.Checkpoint(snap); err != nil {
		return &PersistenceError{Err: fmt.Errorf("session %s: checkpoint: %w", se.ID, err)}
	}
	return nil
}

// RestoreSession rebuilds a session from a snapshot: table, parameters,
// rule sets, and detection flag, with the original session ID adopted
// into the system's ID sequence so future sessions never collide. The
// violation set and stream engine are NOT rebuilt here — call
// ReplayJournal with the WAL tail (possibly empty) to finish recovery.
func (s *System) RestoreSession(snap *SessionSnapshot) (*Session, error) {
	t, err := table.DecodeBinaryBytes(snap.TableData)
	if err != nil {
		return nil, fmt.Errorf("restore session %s: %w", snap.ID, err)
	}
	se := &Session{
		sys:      s,
		ID:       snap.ID,
		Project:  snap.Project,
		Table:    t,
		Params:   snap.Params,
		detected: snap.Detected,
		shards:   snap.Shards,
	}
	se.Discovered = snap.Discovered
	if snap.ConfirmedSet {
		se.Confirmed = realias(snap.Confirmed, snap.Discovered)
	}
	s.adoptID(snap.ID)
	return se, nil
}

// realias maps confirmed rules back onto the discovered pointers with the
// same ID, restoring the aliasing invariant live sessions have (Confirm
// selects a subset of Discovered); rules with no discovered counterpart
// (installed via UseRules) are kept as deserialized.
func realias(confirmed, discovered []*pfd.PFD) []*pfd.PFD {
	if confirmed == nil {
		return []*pfd.PFD{}
	}
	byID := make(map[string]*pfd.PFD, len(discovered))
	for _, p := range discovered {
		byID[p.ID()] = p
	}
	out := make([]*pfd.PFD, len(confirmed))
	for i, p := range confirmed {
		if d, ok := byID[p.ID()]; ok {
			out[i] = d
		} else {
			out[i] = p
		}
	}
	return out
}

// adoptID advances the session-ID sequence past a restored "s<n>" ID.
func (s *System) adoptID(id string) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil {
		return
	}
	for {
		cur := s.seq.Load()
		if cur >= n || s.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ReplayJournal finishes recovery: it bootstraps the incremental engine
// over the restored table at the checkpoint's sequence cursor — the
// shard coordinator, rebuilt shard by shard and re-merged, when the
// snapshot was sharded — which recomputes the violation set,
// byte-identical to a full detection — and replays the journaled delta
// batches through it in order, restoring the sequence timeline so
// pre-crash `since` cursors resolve. Sessions that never ran detection
// skip the engine entirely and must have an empty journal.
func (se *Session) ReplayJournal(baseSeq int64, batches []stream.Batch) error {
	rules := se.rules()
	if !se.detected {
		if len(batches) > 0 {
			return fmt.Errorf("session %s: %d journaled batches but detection never ran (corrupt persistence state)", se.ID, len(batches))
		}
		return nil
	}
	if len(rules) == 0 {
		// Detection over zero mined rules is a legitimate state (zero
		// violations, no stream engine possible — so nothing can have
		// been journaled). Only a non-empty journal marks corruption.
		if len(batches) > 0 {
			return fmt.Errorf("session %s: %d journaled batches but no rules were snapshotted (corrupt persistence state)", se.ID, len(batches))
		}
		se.Violations = nil
		return nil
	}
	eng, err := se.newStreamer(rules, baseSeq)
	if err != nil {
		return fmt.Errorf("session %s: replay: %w", se.ID, err)
	}
	for i, b := range batches {
		if _, err := eng.Replay(b); err != nil {
			return fmt.Errorf("session %s: replay batch %d (seq %d): %w", se.ID, i, baseSeq+int64(i)+1, err)
		}
	}
	se.str, se.strRules = eng, rules
	se.Violations = eng.Violations()
	return nil
}
