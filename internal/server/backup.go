// Streaming session backup/restore:
//
//	GET  /api/v1/sessions/{id}/backup   download the session as a tar
//	POST /api/v1/sessions/restore       import such a tar as a new session
//
// The tar carries exactly what crash recovery would read from the data
// directory — the latest checkpoint snapshot plus the WAL tail — so a
// restore on another node replays through the same property-tested
// path as a restart: violations and `violations?since=` sequence
// cursors come back byte-identical. The tar layout:
//
//	meta.json     backup format version + SessionSnapshot (sans table bytes)
//	table.bin     the binary table snapshot (table.EncodeBinaryBytes)
//	wal/<id>.wal  the raw journal, replayed on restore (absent when empty):
//	              one entry whichever segment files held it, the older
//	              segment's records first
//
// Memory-only sessions (no -data directory) are backed up from a fresh
// in-memory snapshot with an empty WAL tail; restore works identically.
package server

import (
	"archive/tar"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/wal"
)

// backupFormat versions the tar layout; bump on incompatible change.
const backupFormat = 1

// maxRestoreBody caps a restore upload. The table snapshot dominates;
// 1 GiB is far beyond any session this server would admit as a CSV.
const maxRestoreBody = 1 << 30

// backupMeta is the meta.json entry of a session backup tar. The
// snapshot's table bytes live in the separate table.bin entry so the
// metadata stays human-readable (no megabytes of base64).
type backupMeta struct {
	Format   int                  `json:"format"`
	Snapshot core.SessionSnapshot `json:"snapshot"`
}

// apiBackup streams the session as a tar. The durable state (snapshot
// file + WAL) is captured under the session's read lock — every
// mutation path (deltas, confirm, delete) takes the write lock, and both
// reads wait out a checkpoint write still in flight behind an earlier
// batch, so the pair is consistent — and then encoded and streamed to the
// client with no locks held, so a slow download never blocks the
// session's writers.
func (s *Server) apiBackup(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	h.mu.RLock()
	sess := h.sess
	id := sess.ID
	var snap *core.SessionSnapshot
	var walTail []byte
	var err error
	if s.pm != nil {
		var ok bool
		if snap, ok, err = s.pm.Snapshot(id); err == nil && ok {
			walTail, err = s.pm.WALTail(id)
		}
	}
	if err == nil && snap == nil {
		// Memory-only (or never-checkpointed) session: snapshot it fresh.
		// Everything is folded into the snapshot, so the tail is empty; the
		// frozen table is encoded below, after the lock is released.
		snap = sess.Snapshot()
	}
	h.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "backup %s: %v", id, err)
		return
	}

	table := snap.AppendTable(nil)
	meta := *snap
	meta.TableData = nil
	mb, err := json.MarshalIndent(backupMeta{Format: backupFormat, Snapshot: meta}, "", " ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "backup %s: %v", id, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.anmat.tar"`)
	tw := tar.NewWriter(w)
	entry := func(name string, b []byte) error {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(b))}); err != nil {
			return err
		}
		_, err := tw.Write(b)
		return err
	}
	// Past this point the status line is already on the wire; on a write
	// error (client gone, usually) all we can do is stop — the client
	// sees a truncated tar, which no tar reader accepts silently.
	if err := entry("meta.json", mb); err != nil {
		return
	}
	if err := entry("table.bin", table); err != nil {
		return
	}
	if len(walTail) > 0 {
		if err := entry("wal/"+id+".wal", walTail); err != nil {
			return
		}
	}
	_ = tw.Close()
}

// apiRestore imports a backup tar as a new session on this server —
// the other half of node moves and disaster recovery. The session
// keeps its ID (cursors reference it), so a clashing ID is a 409.
func (s *Server) apiRestore(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRestoreBody)
	tr := tar.NewReader(r.Body)
	var meta *backupMeta
	var tableBin []byte
	var walTail []byte
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, bodyStatus(err), "malformed backup tar: %v", err)
			return
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			writeError(w, bodyStatus(err), "backup entry %s: %v", hdr.Name, err)
			return
		}
		switch {
		case hdr.Name == "meta.json":
			meta = new(backupMeta)
			if err := json.Unmarshal(b, meta); err != nil {
				writeError(w, http.StatusBadRequest, "backup meta.json: %v", err)
				return
			}
		case hdr.Name == "table.bin":
			tableBin = b
		case persist.LegacyShardWAL(hdr.Name):
			writeError(w, http.StatusBadRequest, "backup carries per-shard WAL %s of an older layout that this release does not read; take the backup again from a server running this release", hdr.Name)
			return
		case strings.HasPrefix(hdr.Name, "wal/"):
			if walTail != nil {
				writeError(w, http.StatusBadRequest, "backup carries more than one WAL (%s)", hdr.Name)
				return
			}
			walTail = b
		default:
			// Unknown entries are skipped, so a newer writer may add
			// entries without breaking older readers.
		}
	}
	switch {
	case meta == nil:
		writeError(w, http.StatusBadRequest, "backup tar has no meta.json")
		return
	case meta.Format != backupFormat:
		writeError(w, http.StatusBadRequest, "unsupported backup format %d (this server reads format %d)", meta.Format, backupFormat)
		return
	case tableBin == nil:
		writeError(w, http.StatusBadRequest, "backup tar has no table.bin")
		return
	case meta.Snapshot.ID == "":
		writeError(w, http.StatusBadRequest, "backup snapshot has no session id")
		return
	}
	snap := meta.Snapshot
	snap.TableData = tableBin
	if s.handle(snap.ID) != nil {
		writeError(w, http.StatusConflict, "session %s already exists on this server", snap.ID)
		return
	}

	tenant := requestTenant(r)
	sess, err := s.sys.RestoreSession(&snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	rows := sess.Table.NumRows()
	if s.adm != nil {
		if rej := s.adm.reserveSession(tenant, rows); rej != nil {
			writeAdmissionReject(w, tenant, rej)
			return
		}
	}
	fail := func(status int, format string, args ...any) {
		if s.adm != nil {
			s.adm.unreserveSession(tenant, rows)
		}
		writeError(w, status, format, args...)
	}
	// The same run extraction crash recovery applies to the file: a torn
	// final record is dropped by Decode, the run stops at the first gap.
	recs, _, _ := wal.Decode(walTail)
	run, _ := wal.Run(recs, snap.Seq)
	if err := sess.ReplayJournal(snap.Seq, wal.Batches(run)); err != nil {
		fail(http.StatusBadRequest, "restore %s: replay: %v", snap.ID, err)
		return
	}
	if err := s.persistNew(sess); err != nil {
		fail(http.StatusInternalServerError, "restore %s: checkpoint: %v", snap.ID, err)
		return
	}
	if !s.registerNew(sess) {
		// A concurrent restore of the same backup won the race.
		fail(http.StatusConflict, "session %s already exists on this server", snap.ID)
		return
	}
	if s.adm != nil {
		s.adm.bindReserved(tenant, sess.ID, rows)
	}
	writeJSON(w, map[string]any{
		"session":    sess.ID,
		"table":      sess.Table.Name(),
		"rows":       sess.Table.NumRows(),
		"violations": len(sess.Violations),
		"seq":        snap.Seq + int64(len(run)),
	})
}

// registerNew registers a session only if its ID is free, reporting
// whether it won — the restore path must not silently replace a live
// session that appeared between the early conflict check and here.
func (s *Server) registerNew(sess *core.Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sess.ID]; ok {
		return false
	}
	s.sessions[sess.ID] = &sessionHandle{sess: sess}
	return true
}
