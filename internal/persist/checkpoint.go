// A checkpoint is a cut and a write.
//
// The cut runs on the caller's path, under the session's journal lock,
// and does no file work: it waits out the session's previous write (there
// are never two in flight), notes how many journal records the snapshot
// folds in, and points the journal at its other segment when that one is
// empty (and its own is not) — when it is not, a previous write failed,
// its records are still needed, and the cut simply does not switch.
//
// The write runs on a goroutine of its own, from the frozen table view
// the snapshot carries: encode, replace snap/<id>.snap through
// wal.WriteFileAtomic, and only when the rename and the directory sync
// have succeeded empty every segment that has taken no append since the
// cut — all such a segment holds is at or below the snapshot's cursor. A
// failed write leaves the previous snapshot and every segment as they
// were, is counted and logged, and is retried by the next batch
// (CompactionDue counts its records again).
//
// Whether the caller waits for the write is the one difference between
// the two kinds of checkpoint. A baseline (new session, rebuilt engine,
// confirm) always waits: nothing may be journaled against a baseline that
// is not durable. A compaction goes behind its caller — provided the
// snapshot's cursor is exactly the durable cursor plus the journal's
// length, that is, the snapshot and journal on disk already are the state
// it images; otherwise it is treated as the baseline it turned out to be.
//
// What recovery reads after a crash at each point of a compaction at
// cursor S (ARCHITECTURE.md "Durability" has the table): before the
// rename, the previous snapshot and both segments — the records up to S
// in one, those after it in the other; after the rename, the new snapshot
// and the same segments, the records up to S now stale and skipped; after
// the truncation, the new snapshot and the segment of records after S.
package persist

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/wal"
)

// checkpointWrite is one checkpoint between its cut and the end of its
// write.
type checkpointWrite struct {
	snap *core.SessionSnapshot
	// cutAt is when the cut began; folded is the journal length at the cut,
	// the records the snapshot makes obsolete.
	cutAt  time.Time
	folded int
	// behind is set when the caller did not wait: a failure is then
	// nobody's return value and has to be logged.
	behind bool
	// err is the write's outcome, set before done is closed.
	err  error
	done chan struct{}
}

// crashPoint names a step of a checkpoint write at which the crash tests
// kill the writer (Manager.crash). A kill between the temporary file's
// write and its rename is injected through wal.CreateFile instead.
type crashPoint string

const (
	crashAfterCut      crashPoint = "cut"       // nothing of the new snapshot exists yet
	crashAfterRename   crashPoint = "renamed"   // published, no segment emptied
	crashAfterTruncate crashPoint = "truncated" // the whole write is done
)

// dies reports whether a test kills the writer at p.
func (m *Manager) dies(p crashPoint) bool { return m.crash != nil && m.crash(p) }

// settle locks the session's journal state once no checkpoint write is
// in flight. Whatever starts a session's checkpoints serializes them
// (core: the session's own lock), so the write waited for is the last.
func (ws *walState) settle() {
	ws.mu.Lock()
	if w := ws.write; w != nil {
		ws.mu.Unlock()
		<-w.done
		ws.mu.Lock()
	}
}

// Checkpoint replaces the session's snapshot with snap and drops the
// journal records it folds in: the cut here, the write on a goroutine of
// its own, awaited unless snap is a compaction of exactly the durable
// state (see the top of this file).
func (m *Manager) Checkpoint(snap *core.SessionSnapshot) error {
	ws, err := m.state(snap.ID)
	if err != nil {
		return err
	}
	w := &checkpointWrite{snap: snap, cutAt: time.Now(), done: make(chan struct{})}
	ws.settle()
	w.folded = ws.WALRecords
	w.behind = snap.Compaction && snap.Seq == ws.CheckpointSeq+int64(ws.WALRecords)
	if other := 1 - ws.active; ws.dirty[ws.active] && !ws.dirty[other] {
		ws.active = other
	}
	ws.write = w
	m.writers.Add(1)
	ws.mu.Unlock()
	checkpointCutDur.Observe(time.Since(w.cutAt).Seconds())
	go m.write(ws, w)
	if w.behind {
		return nil
	}
	<-w.done
	return w.err
}

// write is the background half of a checkpoint.
func (m *Manager) write(ws *walState, w *checkpointWrite) {
	defer m.writers.Done()
	defer close(w.done)
	if m.dies(crashAfterCut) {
		return
	}
	id := w.snap.ID
	_, endSpan := obs.StartSpan(context.Background(), "persist.checkpoint.write")
	// ws.buf is this goroutine's until ws.write is cleared below: a
	// session never has two writes in flight.
	blob, err := encodeSnapFile(ws.buf, w.snap)
	if err == nil {
		ws.buf = blob
		err = wal.WriteFileAtomic(m.snapPath(id), blob, m.opts.Fsync)
	}
	if err != nil {
		err = fmt.Errorf("persist: write snapshot %s: %w", id, err)
	} else if m.dies(crashAfterRename) {
		return
	}
	ws.mu.Lock()
	ws.write = nil
	if err == nil {
		// Records journaled since the cut all went to the active segment;
		// with none, it too holds nothing above the snapshot's cursor.
		tail := ws.WALRecords - w.folded
		for i := range ws.dirty {
			if !ws.dirty[i] || (i == ws.active && tail > 0) {
				continue
			}
			// By path: the journal may not be open, and an open O_APPEND
			// handle keeps working — its next write lands at the new end.
			if terr := os.Truncate(m.segPath(id, i), 0); terr != nil && !os.IsNotExist(terr) {
				err = fmt.Errorf("persist: reset wal %s: %w", id, terr)
				continue
			}
			ws.dirty[i] = false
		}
		ws.Status = Status{CheckpointSeq: w.snap.Seq, WALRecords: tail}
		checkpoints.Inc()
		if w.folded > 0 {
			compactions.Inc()
		}
		checkpointBytes.Observe(float64(len(blob)))
		checkpointDur.Observe(time.Since(w.cutAt).Seconds())
	}
	ws.mu.Unlock()
	endSpan(err)
	if err != nil {
		w.err = err
		checkpointFailures.Inc()
		if w.behind {
			slog.Warn("checkpoint write failed; the journal keeps every record and the next batch retries",
				"session", id, "seq", w.snap.Seq, "err", err)
		}
	}
	m.dies(crashAfterTruncate)
}
