package server

import (
	"archive/tar"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/wal"
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
	srcDir := t.TempDir()
	_, src, _ := durableServer(t, srcDir)
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

	// The tar is the data directory's files, byte for byte: the snapshot
	// file and the journal segment holding the mid-stream batches — that
	// is what makes the mid-stream cursors replayable on the target.
	sameFiles(t, tarEntries(t, tarBytes), dataFiles(t, srcDir), 2)

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

	dstSrv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
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
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
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
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "no snapshot file") {
		t.Fatalf("tar without a snapshot file: %d %s, want 400 saying so", rec.Code, rec.Body.String())
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
	leftover := path.Join("wal", id+".shard0.wal")
	add(leftover, nil)
	tw.Close()

	dst := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
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

	dstSrv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	dstSrv.SetLimits(Limits{MaxRows: 100}) // dataset has 400 rows
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions/restore", bytes.NewReader(tarBytes))
	req.Header.Set(obs.TenantHeader, "acme")
	dstSrv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota restore: %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
}

// TestRestoreRefusedByAdmissionBootsNoEngine: admission is asked before
// the journal replay, so on a distributed server a refused restore never
// reaches the workers and leaves them free for the next session.
func TestRestoreRefusedByAdmissionBootsNoEngine(t *testing.T) {
	src, _ := newStreamServer(t) // s1
	for range 2 {
		if rec, _ := postCSV(t, src, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(400, 0.01, 31))); rec.Code != http.StatusOK {
			t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
		}
	}
	refused, admitted := takeBackup(t, src, "s2"), takeBackup(t, src, "s3")

	var calls atomic.Int64
	cfg := core.DefaultSystemConfig()
	for s := 0; s < 2; s++ {
		w := cluster.NewWorker(s, 2)
		w.SetLogf(nil)
		ws := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Handler().ServeHTTP(rw, r)
		}))
		t.Cleanup(ws.Close)
		cfg.Workers = append(cfg.Workers, ws.URL)
	}
	srv := New(core.NewSystemWith(docstore.NewMem(), cfg))
	srv.SetLimits(Limits{MaxSessions: 1})
	h := srv.Handler()
	if rec, _ := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(200, 0.01, 3))); rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	before := calls.Load()
	if rec := postRestore(t, h, refused); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("restore past max-sessions: %d %s, want 429", rec.Code, rec.Body.String())
	}
	if n := calls.Load() - before; n != 0 {
		t.Fatalf("a refused restore made %d worker calls, want none", n)
	}
	if rec := serve(h, http.MethodDelete, "/api/v1/sessions/s1", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postRestore(t, h, admitted); rec.Code != http.StatusOK {
		t.Fatalf("restore into the freed slot: %d %s", rec.Code, rec.Body.String())
	}
	q := "/api/v1/sessions/s3/violations?limit=100000"
	if got, want := mustJSON(t, h, q), mustJSON(t, src, q); got != want {
		t.Fatalf("distributed restore serves other violations:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreDuringDeleteIsRefused: a DELETE holds its session's ID until
// the session's files are dropped, so a restore of that ID in between is
// a 409 rather than a checkpoint the drop deletes; once the DELETE is
// done, the ID restores and survives a restart.
func TestRestoreDuringDeleteIsRefused(t *testing.T) {
	dir := t.TempDir()
	srv, h, m := durableServer(t, dir)
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(200, 0.01, 3)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id := out["session"].(string)
	backup := takeBackup(t, h, id)

	hd := srv.handle(id)
	hd.mu.RLock() // a request in flight: the DELETE drains it before dropping
	deleted := make(chan *httptest.ResponseRecorder, 1)
	go func() { deleted <- serve(h, http.MethodDelete, "/api/v1/sessions/"+id, nil) }()
	for srv.handle(id) != nil {
		time.Sleep(time.Millisecond)
	}
	if rec := postRestore(t, h, backup); rec.Code != http.StatusConflict {
		t.Fatalf("restore during the delete: %d %s, want 409", rec.Code, rec.Body.String())
	}
	hd.mu.RUnlock()
	if rec := <-deleted; rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postRestore(t, h, backup); rec.Code != http.StatusOK {
		t.Fatalf("restore after the delete: %d %s", rec.Code, rec.Body.String())
	}
	q := "/api/v1/sessions/" + id + "/violations?limit=100000"
	want := mustJSON(t, h, q)
	m.Close()
	_, again, _ := durableServer(t, dir)
	if got := mustJSON(t, again, q); got != want {
		t.Fatalf("after a restart %s serves other violations:\n got %s\nwant %s", id, got, want)
	}
}

// tarEntries maps the entry names of a tar archive to their bytes.
func tarEntries(t *testing.T, b []byte) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	tr := tar.NewReader(bytes.NewReader(b))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		if out[hdr.Name], err = io.ReadAll(tr); err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
	}
}

// dataFiles maps every non-empty file under a data directory, by its
// slash-separated path there, to its bytes.
func dataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if rel, _ := filepath.Rel(dir, p); len(b) > 0 {
			out[filepath.ToSlash(rel)] = b
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameFiles fails unless a backup's entries are n files, exactly the
// files wanted, byte for byte.
func sameFiles(t *testing.T, got, want map[string][]byte, n int) {
	t.Helper()
	if len(got) != n || len(got) != len(want) {
		t.Fatalf("%d entries %v, want the %d files %v", len(got), keys(got), n, keys(want))
	}
	for name, b := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, b) {
			t.Errorf("entry %s: %d bytes (present %v), the file %d", name, len(g), ok, len(b))
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// untar extracts a backup into dir, as `tar -x` would.
func untar(t *testing.T, b []byte, dir string) {
	t.Helper()
	for name, data := range tarEntries(t, b) {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackupRestoreIsADataDirectory: a backup untarred into an empty
// directory is a data directory that persist.Open + Restore bring back —
// a durable session past a compaction with a journal tail, and a
// memory-only one with no journal — serving violations and every cursor
// of the tail byte-identically to the source at backup time.
func TestBackupRestoreIsADataDirectory(t *testing.T) {
	restart := func(t *testing.T, tarBytes []byte) http.Handler {
		dir := t.TempDir()
		untar(t, tarBytes, dir)
		_, h, _ := durableServer(t, dir)
		return h
	}
	t.Run("durable", func(t *testing.T) {
		_, src, _ := durableServer(t, t.TempDir())
		id := compactingSession(t, src)
		const cut = persist.DefaultCompactEvery
		for i := cut; i < cut+4; i++ { // the compacting batch, and three behind the cut
			if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(i)); rec.Code != http.StatusOK {
				t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body.String())
			}
		}
		queries := []string{"/api/v1/sessions/" + id + "/violations?limit=100000"}
		for c := cut; c <= cut+3; c++ {
			queries = append(queries, fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, c))
		}
		want := make([]string, len(queries))
		for i, q := range queries {
			want[i] = mustJSON(t, src, q)
		}
		dst := restart(t, takeBackup(t, src, id))
		for i, q := range queries {
			if got := mustJSON(t, dst, q); got != want[i] {
				t.Errorf("%s from the untarred backup:\n got %s\nwant %s", q, got, want[i])
			}
		}
	})
	t.Run("memory-only", func(t *testing.T) {
		src, id := newStreamServer(t)
		if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(1)); rec.Code != http.StatusOK {
			t.Fatalf("delta: %d %s", rec.Code, rec.Body.String())
		}
		tarBytes := takeBackup(t, src, id)
		if entries := tarEntries(t, tarBytes); len(entries) != 1 {
			t.Fatalf("memory-only backup entries %v, want the snapshot file alone", keys(entries))
		}
		q := "/api/v1/sessions/" + id + "/violations?limit=100000"
		if got, want := mustJSON(t, restart(t, tarBytes), q), mustJSON(t, src, q); got != want {
			t.Errorf("%s from the untarred backup:\n got %s\nwant %s", q, got, want)
		}
	})
}

// tarOf writes entries, name then bytes, as a tar.
func tarOf(t testing.TB, entries ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i := 0; i < len(entries); i += 2 {
		b := entries[i+1].([]byte)
		if err := tw.WriteHeader(&tar.Header{Name: entries[i].(string), Size: int64(len(b)), Mode: 0o644}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badBackups derives from a durable session's backup — the session s1,
// with a journal entry — the malformed tars a restore must refuse, and
// what each refusal must say.
func badBackups(t *testing.T, good []byte) map[string]struct {
	tar  []byte
	says string
} {
	t.Helper()
	var snapName, walName string
	entries := tarEntries(t, good)
	for name := range entries {
		if strings.HasSuffix(name, ".snap") {
			snapName = name
		} else {
			walName = name
		}
	}
	if snapName == "" || walName == "" {
		t.Fatalf("backup entries %v, want a snapshot file and a journal segment", keys(entries))
	}
	snap, seg := entries[snapName], entries[walName]
	other := func(name string) string {
		return path.Join(path.Dir(name), strings.Replace(path.Base(name), "s1", "s2", 1))
	}
	return map[string]struct {
		tar  []byte
		says string
	}{
		"cut short":        {good[:len(good)/2], "malformed backup tar"},
		"two snapshots":    {tarOf(t, snapName, snap, other(snapName), snap, walName, seg), "second snapshot file"},
		"foreign segment":  {tarOf(t, snapName, snap, other(walName), seg), "not a journal segment of session s1"},
		"invalid stem":     {tarOf(t, path.Join(path.Dir(snapName), "a..b.snap"), snap), "invalid session id"},
		"format 1":         {tarOf(t, "meta.json", []byte(`{"format":1,"snapshot":{"session":"s1"}}`), "table.bin", snap), "format 1"},
		"corrupt snapshot": {tarOf(t, snapName, snap[:len(snap)-1], walName, seg), "checksum"},
	}
}

// durableBackup is the backup of a durable session s1 with a journal.
func durableBackup(t *testing.T) []byte {
	t.Helper()
	_, src, _ := durableServer(t, t.TempDir())
	rec, _ := postCSV(t, src, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(120, 0.05, 7)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	for _, body := range []string{
		`{"deltas":[{"op":"append","rows":[["(555) 123-4567","CA"]]}]}`,
		`{"deltas":[{"op":"update","row":0,"column":"state","value":"ZZ"}]}`,
		`{"deltas":[{"op":"delete","drop":[3]}]}`,
	} {
		if rec, _ := postJSON(t, src, "/api/v1/sessions/s1/deltas", body); rec.Code != http.StatusOK {
			t.Fatalf("delta: %d %s", rec.Code, rec.Body.String())
		}
	}
	return takeBackup(t, src, "s1")
}

// TestRestoreRefusesMalformedImages: a truncated tar, two snapshots, a
// segment of another session, an invalid session ID, a format-1 backup
// (whose refusal names the way across) and a corrupt snapshot are each a
// 400 saying so, and register nothing.
func TestRestoreRefusesMalformedImages(t *testing.T) {
	for name, c := range badBackups(t, durableBackup(t)) {
		t.Run(name, func(t *testing.T) {
			h := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
			rec := postRestore(t, h, c.tar)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.says) {
				t.Fatalf("%d %s, want a 400 saying %q", rec.Code, rec.Body.String(), c.says)
			}
			if name == "format 1" && !strings.Contains(rec.Body.String(), "-data") {
				t.Errorf("the format-1 refusal %s does not name the way across", rec.Body.String())
			}
			if rec := get(t, h, "/api/v1/sessions/s1"); rec.Code != http.StatusNotFound {
				t.Errorf("a refused restore registered s1: %d", rec.Code)
			}
		})
	}
}

// serve runs one request; unlike the helpers above it may run on a
// goroutine of its own.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// TestRestoreNeverSharesAnID: while a restore or an upload of ID s1 is
// writing its first snapshot, a restore of another s1 is refused without
// writing anything, so after a restart the directory serves the session
// the 200 answer registered. Every snapshot write is held, then let go in
// the order the writes began.
func TestRestoreNeverSharesAnID(t *testing.T) {
	backupOf := func(d *datagen.Dataset) []byte {
		h := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
		if rec, _ := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, d)); rec.Code != http.StatusOK {
			t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
		}
		return takeBackup(t, h, "s1")
	}
	other := backupOf(datagen.PhoneState(300, 0.03, 5))
	d := datagen.PhoneState(400, 0.01, 31)
	for name, first := range map[string]struct {
		target string
		body   []byte
	}{
		"restore": {"/api/v1/sessions/restore", backupOf(d)},
		"upload":  {"/api/v1/sessions?name=phones", []byte(csvBody(t, d))},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, h, m := durableServer(t, dir)
			create := wal.CreateFile
			t.Cleanup(func() { wal.CreateFile = create })
			held, release := make(chan struct{}), make(chan struct{})
			wal.CreateFile = func(path string) (wal.File, error) {
				held <- struct{}{}
				<-release
				return create(path)
			}
			async := func(f func() *httptest.ResponseRecorder) <-chan *httptest.ResponseRecorder {
				done := make(chan *httptest.ResponseRecorder, 1)
				go func() { done <- f() }()
				return done
			}
			firstDone := async(func() *httptest.ResponseRecorder { return serve(h, http.MethodPost, first.target, first.body) })
			<-held // s1's first snapshot is being written
			secondDone := async(func() *httptest.ResponseRecorder {
				return serve(h, http.MethodPost, "/api/v1/sessions/restore", other)
			})
			// Refused at once; without the claim it would get past the ID
			// check and queue its own write behind the held one, which the
			// grace period lets it reach before the first write goes.
			var second *httptest.ResponseRecorder
			select {
			case second = <-secondDone:
			case <-time.After(100 * time.Millisecond):
			}
			release <- struct{}{}
			won := <-firstDone
			for second == nil {
				select {
				case <-held:
					release <- struct{}{}
				case second = <-secondDone:
				}
			}
			if won.Code != http.StatusOK || second.Code != http.StatusConflict {
				t.Fatalf("first %s: %d %s; second restore: %d %s; want 200 and 409", name, won.Code, won.Body.String(), second.Code, second.Body.String())
			}
			q := "/api/v1/sessions/s1/violations?limit=100000"
			want := mustJSON(t, h, q)
			wal.CreateFile = create
			m.Close()
			_, again, _ := durableServer(t, dir)
			if got := mustJSON(t, again, q); got != want {
				t.Fatalf("after a restart s1 serves another table than the one registered:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRestoreClaimPassesUploadsOver: an upload whose fresh ID a restore
// has claimed takes the next one.
func TestRestoreClaimPassesUploadsOver(t *testing.T) {
	srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	if !srv.claim("s1") {
		t.Fatal("claim of a free ID refused")
	}
	if srv.claim("s1") {
		t.Fatal("an ID was claimed twice")
	}
	rec, out := postCSV(t, srv.Handler(), "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(200, 0.01, 3)))
	if rec.Code != http.StatusOK || out["session"] != "s2" {
		t.Fatalf("upload beside a claimed s1: %d %s, want session s2", rec.Code, rec.Body.String())
	}
	srv.unclaim("s1")
	if !srv.claim("s1") || srv.claim("s2") {
		t.Fatal("giving s1 up left it taken, or a live s2 was claimable")
	}
}

// FuzzRestoreBackup posts arbitrary bytes to the restore endpoint of a
// memory-only server: no panic, a malformed body is a 4xx and never a
// 5xx, and a restored session serves exactly the violations a fresh
// detection finds over its own table and active rules. The committed
// corpus holds a real backup with a journal, the same cut short, and the
// tars of two snapshots, of a segment of another session, and of the
// first format.
func FuzzRestoreBackup(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
		h := srv.Handler()
		rec := postRestore(t, h, body)
		if rec.Code >= 500 {
			t.Fatalf("%d %s", rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		sess := srv.handle(jsonField(t, rec, "session")).sess
		rules := sess.Confirmed
		if rules == nil {
			rules = sess.Discovered
		}
		res, err := detect.New(sess.Table, detect.Options{}).DetectAllContext(context.Background(), rules, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sess.DetectionRan() || len(res.Violations) == 0 && len(sess.Violations) == 0 {
			return
		}
		want := httptest.NewRecorder()
		writeJSON(want, map[string]any{
			"session":    sess.ID,
			"count":      len(res.Violations),
			"offset":     0,
			"returned":   len(res.Violations),
			"violations": res.Violations,
		})
		if got := mustJSON(t, h, "/api/v1/sessions/"+sess.ID+"/violations"); got != want.Body.String() {
			t.Fatalf("restored violations:\n got %s\nwant %s", got, want.Body.String())
		}
	})
}

// sparseTar is a one-entry tar in the old GNU sparse format: the entry
// takes one data byte on the wire and reads back as size bytes.
func sparseTar(name string, size int64) []byte {
	hdr := make([]byte, 512)
	field := func(at, width int, v int64) { copy(hdr[at:], fmt.Sprintf("%0*o\x00", width-1, v)) }
	copy(hdr, name)
	field(100, 8, 0o644)
	field(124, 12, 1) // the bytes on the wire
	field(136, 12, 0)
	hdr[156] = 'S'
	copy(hdr[257:], "ustar  \x00") // GNU magic and version
	field(386, 12, size-1)         // one sparse block: the last byte
	field(398, 12, 1)
	field(483, 12, size) // the size it reads back as
	copy(hdr[148:156], "        ")
	var sum int64
	for _, c := range hdr {
		sum += int64(c)
	}
	copy(hdr[148:], fmt.Sprintf("%06o\x00 ", sum))
	return append(append(hdr, 'x'), make([]byte, 511+1024)...)
}

// TestRestoreCapsExpandingEntries: an entry that expands past the body's
// cap — a sparse file holds more than its bytes on the wire — is a 413,
// refused before it is read.
func TestRestoreCapsExpandingEntries(t *testing.T) {
	h := New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())).Handler()
	if rec := postRestore(t, h, sparseTar("s1.snap", 2*maxUploadBody)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a sparse entry of %d bytes: %d %s, want 413", 2*maxUploadBody, rec.Code, rec.Body.String())
	}
}
