package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/wal"
)

// heldFile is the temporary file of a snapshot write whose first Write
// waits to be let go.
type heldFile struct {
	*os.File
	held, release chan struct{}
}

func (f *heldFile) Write(b []byte) (int, error) {
	if f.held != nil {
		close(f.held)
		f.held = nil
		<-f.release
	}
	return f.File.Write(b)
}

// holdNextSnapshotWrite makes the next snapshot write (through the
// wal.CreateFile seam) wait inside its temporary file's Write: held closes
// when it is there, release lets it go. Not for parallel tests.
func holdNextSnapshotWrite(t *testing.T) (held <-chan struct{}, release func()) {
	t.Helper()
	open := wal.CreateFile
	t.Cleanup(func() { wal.CreateFile = open })
	h, r := make(chan struct{}), make(chan struct{})
	wal.CreateFile = func(path string) (wal.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		file := &heldFile{File: f.(*os.File), held: h, release: r}
		h = nil // only the next one
		return file, nil
	}
	return h, func() { close(r) }
}

// goroutinesBackTo fails the test unless the goroutine count returns to
// base: nothing the durability layer started may outlive its Close.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // a goroutine past its last statement may still be counted
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before: leaked\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// oneRowBatch is a one-row append; i varies the row.
func oneRowBatch(i int) string {
	return fmt.Sprintf(`{"deltas":[{"op":"append","rows":[["(555) %03d-%04d","CA"]]}]}`, i%1000, i)
}

// compactingSession uploads a session and posts one-row batches until
// the next one brings its first compaction due.
func compactingSession(t *testing.T, h http.Handler) (id string) {
	t.Helper()
	rec, out := postCSV(t, h, "/api/v1/sessions?name=phones", csvBody(t, datagen.PhoneState(300, 0.01, 41)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	id = out["session"].(string)
	for i := 1; i < persist.DefaultCompactEvery; i++ {
		if rec, _ := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(i)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	return id
}

// TestBackupRestoreDuringCheckpointWrite: a backup requested while the
// compaction's snapshot write is held open, with batches acknowledged
// behind the cut, waits for the write, carries the journal as its one
// wal/<id>.wal entry, and restores byte-identically — cursors included.
func TestBackupRestoreDuringCheckpointWrite(t *testing.T) {
	_, src, _ := durableServer(t, t.TempDir())
	id := compactingSession(t, src)
	held, release := holdNextSnapshotWrite(t)
	const cut = persist.DefaultCompactEvery
	for i := cut; i < cut+3; i++ { // the compacting batch, and two behind the cut
		if rec, _ := postJSON(t, src, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(i)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d, the write held open: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	<-held
	queries := []string{
		"/api/v1/sessions/" + id + "/violations",
		fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, cut),
		fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, cut+1),
		fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, cut+2),
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = mustJSON(t, src, q)
	}
	backup := make(chan []byte)
	go func() { backup <- takeBackup(t, src, id) }()
	select {
	case <-backup:
		t.Fatal("the backup did not wait for the checkpoint write in flight")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	tarBytes := <-backup
	var wals []string
	for name := range tarEntryNames(t, tarBytes) {
		if strings.HasPrefix(name, "wal/") {
			wals = append(wals, name)
		}
	}
	if len(wals) != 1 || wals[0] != "wal/"+id+".wal" {
		t.Fatalf("backup carries WAL entries %v, want the one wal/%s.wal", wals, id)
	}

	_, dst, _ := durableServer(t, t.TempDir())
	if rec := postRestore(t, dst, tarBytes); rec.Code != http.StatusOK {
		t.Fatalf("restore: %d %s", rec.Code, rec.Body.String())
	} else if want := fmt.Sprintf(`"seq": %d,`, cut+2); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("restored as %s, want %s", rec.Body.String(), want)
	}
	for i, q := range queries {
		if got := mustJSON(t, dst, q); got != want[i] {
			t.Errorf("restored %s:\n got %s\nwant %s", q, got, want[i])
		}
	}
}

// TestCheckpointDeleteDuringWrite: DELETE while the compaction's snapshot
// write is in flight waits for it and then removes everything — no
// snapshot, temporary or journal segment is left for the next start to
// resurrect the session from — and Close leaves no goroutine behind.
func TestCheckpointDeleteDuringWrite(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	_, h, m := durableServer(t, dir)
	id := compactingSession(t, h)
	held, release := holdNextSnapshotWrite(t)
	if rec, _ := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(0)); rec.Code != http.StatusOK {
		t.Fatalf("compacting batch: %d %s", rec.Code, rec.Body.String())
	}
	<-held
	deleted := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/sessions/"+id, nil))
		deleted <- rec.Code
	}()
	select {
	case <-deleted:
		t.Fatal("DELETE did not wait for the checkpoint write in flight")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if code := <-deleted; code != http.StatusOK {
		t.Fatalf("DELETE: %d", code)
	}
	for _, sub := range []string{"snap", "wal"} {
		if left, _ := os.ReadDir(filepath.Join(dir, sub)); len(left) > 0 {
			t.Errorf("DELETE during a write left %s/%s behind", sub, left[0].Name())
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	goroutinesBackTo(t, base)
	srv2, _, _ := durableServer(t, dir)
	if n := len(srv2.sessions); n != 0 {
		t.Fatalf("%d session(s) came back after the delete", n)
	}
}

// TestCheckpointCadenceOverHTTP: compaction runs every
// DefaultCompactEvery batches counted from the session's first, written
// behind the acknowledgements, and an idle session's summary says so:
// persistence.wal_records == seq % DefaultCompactEvery.
func TestCheckpointCadenceOverHTTP(t *testing.T) {
	_, h, _ := durableServer(t, t.TempDir())
	id := compactingSession(t, h)
	const every = persist.DefaultCompactEvery
	for i := every; i <= 2*every+5; i++ {
		rec, diff := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if i%every > 1 && i%every < every-1 {
			continue // look around the cuts only
		}
		_, sum := getJSON(t, h, "/api/v1/sessions/"+id)
		p, _ := sum["persistence"].(map[string]any)
		if p == nil || p["wal_records"] != float64(i%every) || p["checkpoint_seq"] != float64(i-i%every) || len(p) != 2 {
			t.Fatalf("after batch %d (seq %v): persistence = %v", i, diff["seq"], p)
		}
	}
}

// failingCut is a persister whose compaction checkpoints fail before
// anything is written: the one checkpoint failure left on the request
// path now that the write itself happens behind it.
type failingCut struct{ core.Persister }

func (p failingCut) Checkpoint(snap *core.SessionSnapshot) error {
	if snap.Compaction {
		return fmt.Errorf("cut refused")
	}
	return p.Persister.Checkpoint(snap)
}

// TestCheckpointFailedCutAnswer: a batch that was journaled and applied
// but whose compaction could not even be cut is answered with a 500 that
// says so — do not resubmit — and the batch is there on the next read.
func TestCheckpointFailedCutAnswer(t *testing.T) {
	srv, h, m := durableServer(t, t.TempDir())
	id := compactingSession(t, h)
	srv.handle(id).sess.SetPersist(failingCut{m})
	rec, _ := postJSON(t, h, "/api/v1/sessions/"+id+"/deltas", oneRowBatch(0))
	if rec.Code != http.StatusInternalServerError ||
		!strings.Contains(rec.Body.String(), fmt.Sprintf("deltas applied (seq %d) but checkpoint failed", persist.DefaultCompactEvery)) ||
		!strings.Contains(rec.Body.String(), "do not resubmit") {
		t.Fatalf("failed cut answered %d %s", rec.Code, rec.Body.String())
	}
	_, diff := getJSON(t, h, fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, persist.DefaultCompactEvery-1))
	if diff["seq"] != float64(persist.DefaultCompactEvery) {
		t.Fatalf("the batch behind the failed cut is not applied: %v", diff)
	}
	if st, _ := m.Status(id); st.WALRecords != persist.DefaultCompactEvery || st.CheckpointSeq != 0 {
		t.Fatalf("status after the failed cut: %+v", st)
	}
}
