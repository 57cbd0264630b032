package server

import (
	"archive/tar"
	"bytes"

	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
)

// takeBackup downloads the session's backup tar.
func takeBackup(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rec := get(t, h, "/api/v1/sessions/"+id+"/backup")
	if rec.Code != http.StatusOK {
		t.Fatalf("backup: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-tar" {
		t.Fatalf("backup Content-Type = %q", ct)
	}
	return rec.Body.Bytes()
}

// postRestore uploads a backup tar.
func postRestore(t *testing.T, h http.Handler, tarBytes []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions/restore", bytes.NewReader(tarBytes))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// mustJSON asserts a 200 and returns the response body verbatim — the
// byte-identity comparisons below diff whole response bodies.
func mustJSON(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := get(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestBackupRestoreRoundTripDurable is the acceptance flow: a durable
// session is mutated mid-stream, backed up, and restored onto a fresh
// server — where violations and `violations?since=` cursors resolve
// byte-identically to the source at backup time.
func TestBackupRestoreRoundTripDurable(t *testing.T) {
	_, src, _ := durableServer(t, t.TempDir())
	d := datagen.PhoneState(400, 0.01, 77)
	rec, out := postCSV(t, src, "/api/v1/sessions?name=phones", csvBody(t, d))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)

	// Mid-stream: a few journaled delta batches so the backup carries a
	// WAL tail (CompactEvery default is far above 3 batches).
	deltas := []string{
		`{"deltas":[{"op":"append","rows":[["(555) 123-4567","CA"],["(555) 222-1111","NY"]]}]}`,
		`{"deltas":[{"op":"update","row":0,"column":"state","value":"ZZ"}]}`,
		`{"deltas":[{"op":"delete","drop":[3]}]}`,
	}
	for i, body := range deltas {
		if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas", body); rec.Code != http.StatusOK {
			t.Fatalf("delta %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	tarBytes := takeBackup(t, src, id)

	// The tar must carry a WAL tail — that is what makes the mid-stream
	// cursors replayable on the target.
	names := tarEntryNames(t, tarBytes)
	if !names["meta.json"] || !names["table.bin"] {
		t.Fatalf("backup entries = %v, want meta.json and table.bin", names)
	}
	hasWAL := false
	for n := range names {
		if strings.HasPrefix(n, "wal/") {
			hasWAL = true
		}
	}
	if !hasWAL {
		t.Fatalf("backup entries = %v, want a wal/ tail for a mid-stream session", names)
	}

	// Reference answers captured at backup time, cursors included.
	queries := []string{
		"/api/v1/sessions/" + id + "/violations",
		"/api/v1/sessions/" + id + "/violations?since=1",
		"/api/v1/sessions/" + id + "/violations?since=2",
		"/api/v1/sessions/" + id + "/violations?since=3",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = mustJSON(t, src, q)
	}
	// The source keeps moving after the backup; the restored session must
	// reflect backup time, not this.
	if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"update","row":1,"column":"state","value":"XX"}]}`); rec.Code != http.StatusOK {
		t.Fatalf("post-backup delta: %d", rec.Code)
	}

	// Fresh server, its own empty data directory.
	_, dst, _ := durableServer(t, t.TempDir())
	rec = postRestore(t, dst, tarBytes)
	if rec.Code != http.StatusOK {
		t.Fatalf("restore: %d %s", rec.Code, rec.Body.String())
	}
	if got := jsonField(t, rec, "session"); got != id {
		t.Fatalf("restored session = %q, want %q", got, id)
	}
	for i, q := range queries {
		if got := mustJSON(t, dst, q); got != want[i] {
			t.Errorf("restored %s:\n got %s\nwant %s", q, got, want[i])
		}
	}

	// Restoring the same ID again (onto the target, which now owns it) is
	// a conflict, not a silent overwrite.
	if rec := postRestore(t, dst, tarBytes); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate restore: %d, want 409", rec.Code)
	}
}

// TestBackupRestoreMemoryServer covers the no-persistence path: the
// backup is cut from a fresh in-memory snapshot (empty WAL tail) and
// restores on an equally memory-only server.
func TestBackupRestoreMemoryServer(t *testing.T) {
	src, id := newStreamServer(t)
	if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"append","rows":[["(555) 867-5309","CA"]]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("delta: %d", rec.Code)
	}
	tarBytes := takeBackup(t, src, id)
	wantViolations := mustJSON(t, src, "/api/v1/sessions/"+id+"/violations")

	dstSrv := New(core.NewSystem(docstore.NewMem()))
	dst := dstSrv.Handler()
	rec := postRestore(t, dst, tarBytes)
	if rec.Code != http.StatusOK {
		t.Fatalf("restore: %d %s", rec.Code, rec.Body.String())
	}
	if got := mustJSON(t, dst, "/api/v1/sessions/"+id+"/violations"); got != wantViolations {
		t.Errorf("restored violations:\n got %s\nwant %s", got, wantViolations)
	}
	// The restored engine continues the sequence timeline: new deltas get
	// fresh seqs and diff against the restored violation set.
	if rec, out := postJSON(t, dst, "/api/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"op":"append","rows":[["(555) 999-0000","WA"]]}]}`); rec.Code != http.StatusOK {
		t.Fatalf("post-restore delta: %d %s", rec.Code, rec.Body.String())
	} else if out["seq"].(float64) <= 0 {
		t.Fatalf("post-restore seq = %v, want > 0", out["seq"])
	}
}

// TestRestoreRejectsGarbage exercises the malformed-upload guards.
func TestRestoreRejectsGarbage(t *testing.T) {
	srv := New(core.NewSystem(docstore.NewMem()))
	h := srv.Handler()
	if rec := postRestore(t, h, []byte("not a tar at all")); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", rec.Code)
	}
	// A valid tar without the required entries is equally a 400.
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "unrelated.txt", Size: 2, Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	tw.Close()
	rec := postRestore(t, h, buf.Bytes())
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "meta.json") {
		t.Fatalf("tar without meta.json: %d %s, want 400 naming meta.json", rec.Code, rec.Body.String())
	}
}

// TestRestoreRefusesLegacyShardWAL: a backup taken by the per-shard WAL
// layout carries wal/<id>.shard<k>.wal entries whose batches this release
// would not replay; the restore must be refused naming the entry, and no
// session may appear.
func TestRestoreRefusesLegacyShardWAL(t *testing.T) {
	src, id := newStreamServer(t)
	good := takeBackup(t, src, id)
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	add := func(name string, b []byte) {
		t.Helper()
		if err := tw.WriteHeader(&tar.Header{Name: name, Size: int64(len(b)), Mode: 0o644}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	tr := tar.NewReader(bytes.NewReader(good))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		add(hdr.Name, b)
	}
	leftover := "wal/" + id + ".shard0.wal"
	add(leftover, nil)
	tw.Close()

	dst := New(core.NewSystem(docstore.NewMem())).Handler()
	rec := postRestore(t, dst, buf.Bytes())
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), leftover) {
		t.Fatalf("restore with %s: %d %s, want 400 naming it", leftover, rec.Code, rec.Body.String())
	}
	if rec := get(t, dst, "/api/v1/sessions/"+id); rec.Code != http.StatusNotFound {
		t.Fatalf("refused restore still registered %s: %d", id, rec.Code)
	}
	// The same backup without the leftover restores.
	if rec := postRestore(t, dst, good); rec.Code != http.StatusOK {
		t.Fatalf("restore of the clean backup: %d %s", rec.Code, rec.Body.String())
	}
}

// TestRestoreCountsAgainstAdmission: a restore is an upload as far as
// tenant quotas go.
func TestRestoreCountsAgainstAdmission(t *testing.T) {
	src, id := newStreamServer(t)
	tarBytes := takeBackup(t, src, id)

	dstSrv := New(core.NewSystem(docstore.NewMem()))
	dstSrv.SetLimits(Limits{MaxRows: 100}) // dataset has 400 rows
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions/restore", bytes.NewReader(tarBytes))
	req.Header.Set(obs.TenantHeader, "acme")
	dstSrv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota restore: %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
}

// tarEntryNames lists the entry names of a tar archive.
func tarEntryNames(t *testing.T, b []byte) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	tr := tar.NewReader(bytes.NewReader(b))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		out[hdr.Name] = true
		if _, err := io.Copy(io.Discard, tr); err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
	}
}
