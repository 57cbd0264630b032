// Session backup/restore:
//
//	GET  /api/v1/sessions/{id}/backup   download the session as a tar
//	POST /api/v1/sessions/restore       import such a tar as a new session
//
// A backup is a data directory holding one session (persist.Files): `tar
// -x` it and `anmat-server -data` restores it, as a restore runs persist's
// recovery over its entries. The names are persist's; this file only
// moves (name, bytes) pairs between a tar and persist.
package server

import (
	"archive/tar"
	"io"
	"net/http"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/persist"
)

// apiBackup sends the session as a tar. Its files are read under the
// session's read lock, after any checkpoint write in flight, so they image
// one state; they are sent with no lock held, blocking no writer.
func (s *Server) apiBackup(w http.ResponseWriter, r *http.Request) {
	h := s.requestHandle(w, r)
	if h == nil {
		return
	}
	var files []persist.File
	var snap *core.SessionSnapshot
	var err error
	h.mu.RLock()
	if s.pm != nil {
		files, err = s.pm.Files(h.sess.ID)
	}
	if err == nil && files == nil {
		snap = h.sess.Snapshot() // encoded below, after the lock is released
	}
	h.mu.RUnlock()
	if snap != nil {
		files, err = persist.SnapshotFiles(snap)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "backup %s: %v", h.sess.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", `attachment; filename="`+h.sess.ID+`.anmat.tar"`)
	tw := tar.NewWriter(w)
	for _, f := range files {
		// Past the first write the status line is on the wire: on an error
		// (client gone, usually) stop, leaving a tar no reader accepts.
		if tw.WriteHeader(&tar.Header{Name: f.Name, Mode: 0o644, Size: int64(len(f.Data))}) != nil {
			return
		}
		if _, err := tw.Write(f.Data); err != nil {
			return
		}
	}
	_ = tw.Close()
}

// apiRestore imports a backup tar as a new session on this server —
// the other half of node moves and disaster recovery. The session
// keeps its ID (cursors reference it), so a clashing ID is a 409.
func (s *Server) apiRestore(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBody)
	tr := tar.NewReader(r.Body)
	var files []persist.File
	// Entries share the body's cap: a sparse one outsizes its wire bytes.
	room := int64(maxUploadBody)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		var b []byte
		if err == nil {
			if room -= hdr.Size; room < 0 {
				writeError(w, http.StatusRequestEntityTooLarge, "backup entries exceed %d bytes", maxUploadBody)
				return
			}
			b, err = io.ReadAll(tr)
		}
		if err != nil {
			writeError(w, bodyStatus(err), "malformed backup tar: %v", err)
			return
		}
		files = append(files, persist.File{Name: hdr.Name, Data: b})
	}
	img, err := persist.ParseImage(files)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	// Claimed before anything under the ID is decoded or written (see claim).
	if !s.claim(img.ID) {
		writeError(w, http.StatusConflict, "session %s already exists on this server", img.ID)
		return
	}
	// Admission is asked before the replay, so a refused restore boots no
	// engine (nor claims the workers). Until the session is registered,
	// returning gives up the claim and any reservation.
	tenant, rows, live := requestTenant(r), -1, false // rows: those reserved
	defer func() {
		if !live {
			s.unclaim(img.ID)
			if rows >= 0 {
				s.adm.unreserveSession(tenant, rows)
			}
		}
	}()
	var rej *rejection
	sess, seq, err := img.Restore(s.sys, func(n int) bool {
		if s.adm != nil {
			if rej = s.adm.reserveSession(tenant, n); rej != nil {
				return false
			}
			rows = n
		}
		return true
	})
	switch {
	case rej != nil:
		writeAdmissionReject(w, tenant, rej)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	if err := s.persistNew(sess); err != nil {
		sess.Close()
		writeError(w, http.StatusInternalServerError, "restore %s: checkpoint: %v", img.ID, err)
		return
	}
	live = true
	s.register(sess.ID, sess)
	if s.adm != nil {
		s.adm.bindReserved(tenant, sess.ID, rows)
	}
	writeJSON(w, map[string]any{
		"session":    sess.ID,
		"table":      sess.Table.Name(),
		"rows":       sess.Table.NumRows(),
		"violations": len(sess.Violations),
		"seq":        seq,
	})
}
