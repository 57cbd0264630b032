// Backup accessors: read-only views of a session's durable state — the
// checkpointed snapshot document and the raw WAL tail — for the
// server's streaming backup endpoint. Together they are an exact clone
// of what crash recovery would rebuild from, so a restore on another
// node replays through the same property-tested path as a restart.
package persist

import (
	"fmt"
	"os"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
)

// Snapshot returns the session's checkpointed snapshot, or ok=false when
// none was ever written. The returned snapshot (including its table
// bytes) is decoded fresh and owned by the caller.
func (m *Manager) Snapshot(id string) (snap *core.SessionSnapshot, ok bool, err error) {
	if err := validID(id); err != nil {
		return nil, false, err
	}
	docs := m.store.Find(CollSnapshots, docstore.Filter{"session": id})
	if len(docs) == 0 {
		return nil, false, nil
	}
	snap, err = decodeSnapshot(docs[0])
	if err != nil {
		return nil, false, err
	}
	return snap, true, nil
}

// WALTail reads the raw bytes of the session's journal — the replay
// input a backup carries alongside the snapshot; nil when the session
// never journaled. The session's journal lock is held across the read so
// no group-commit round interleaves; callers wanting a consistent
// (snapshot, tail) pair must additionally hold the session's own lock,
// which quiesces new journals and checkpoints entirely. The tail is
// small by construction (bounded by the compaction threshold).
func (m *Manager) WALTail(id string) ([]byte, error) {
	ws, err := m.state(id)
	if err != nil {
		return nil, err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	data, err := os.ReadFile(m.walPath(id))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: backup wal %s: %w", id, err)
	}
	return data, nil
}
