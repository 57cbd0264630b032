package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
	"github.com/anmat/anmat/internal/wal"
)

// testRules mirrors the stream property rules: constant and variable
// tableau rows over two column pairs, with an ambiguous variable pattern.
func testRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("T", "code", "city", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<90>\D{3}`), RHS: "LA"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{3}`), RHS: tableau.Wildcard},
		)),
		pfd.New("T", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<85>\D{3}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D+>\D+`), RHS: tableau.Wildcard},
		)),
	}
}

// readWAL decodes the WAL file at path (a missing file is an empty log);
// see wal.Decode for the torn-tail contract.
func readWAL(path string) (recs []wal.Record, ends []int64, tornAt int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, -1, err
	}
	recs, ends, tornAt = wal.Decode(b)
	return recs, ends, tornAt, nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testTable() *table.Table {
	return table.MustFromRows("T", []string{"code", "city", "phone", "state"}, [][]string{
		{"90001", "LA", "85123", "FL"},
		{"90001", "NY", "85123", "NY"},
		{"10001", "NY", "21111", "NY"},
		{"85777", "SF", "85124", "FL"},
	})
}

// newDetectedSession builds a session with rules installed and detection
// run, attached to a fresh manager at dir.
func newDetectedSession(t *testing.T, dir string) (*core.Session, *Manager) {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	se := sys.NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(testRules())
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return se, m
}

func restoreOne(t *testing.T, dir string) (*core.Session, *Manager) {
	t.Helper()
	return restoreInto(t, dir, core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
}

// restoreInto is restoreOne into the given system.
func restoreInto(t *testing.T, dir string, sys *core.System) (*core.Session, *Manager) {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := m.Restore(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("restored %d sessions, want 1", len(sessions))
	}
	return sessions[0], m
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	wantVio := mustJSON(t, se.Violations)
	m.Close()

	back, _ := restoreOne(t, dir)
	if back.ID != se.ID || back.Project != "proj" {
		t.Errorf("restored identity %s/%s", back.ID, back.Project)
	}
	if back.Table.NumRows() != se.Table.NumRows() {
		t.Errorf("rows = %d, want %d", back.Table.NumRows(), se.Table.NumRows())
	}
	if !back.DetectionRan() {
		t.Error("detection flag lost")
	}
	if got := mustJSON(t, back.Violations); got != wantVio {
		t.Errorf("violations diverged:\n got %s\nwant %s", got, wantVio)
	}
}

func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90002", "SD", "85125", "CA"})}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "city", "SF")}); err != nil {
		t.Fatal(err)
	}
	wantVio := mustJSON(t, se.Violations)
	wantRows := se.Table.NumRows()
	m.Close() // crash: in-memory state discarded, WAL + snapshot survive

	back, m2 := restoreOne(t, dir)
	defer m2.Close()
	if back.Table.NumRows() != wantRows {
		t.Fatalf("rows = %d, want %d", back.Table.NumRows(), wantRows)
	}
	if got := mustJSON(t, back.Violations); got != wantVio {
		t.Errorf("violations diverged after replay:\n got %s\nwant %s", got, wantVio)
	}
	st, ok := m2.Status(back.ID)
	if !ok || st.WALRecords != 2 {
		t.Errorf("status = %+v ok=%v, want 2 replayed records", st, ok)
	}
	// The sequence timeline survived: the next batch continues it.
	diff, err := back.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"10002", "NY", "21112", "NY"})})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Seq != 3 {
		t.Errorf("seq after restart = %d, want 3", diff.Seq)
	}
}

func TestCompactionResetsWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	se := sys.NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(testRules())
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90001", "LA", "85123", "FL"})}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := m.Status(se.ID)
	if !ok {
		t.Fatal("no status")
	}
	if st.WALRecords >= 2 {
		t.Errorf("WAL not compacted: %+v", st)
	}
	if st.CheckpointSeq < 4 {
		t.Errorf("checkpoint cursor lagging: %+v", st)
	}
	// After compaction the tail is short but recovery is still exact.
	wantVio := mustJSON(t, se.Violations)
	m.Close()
	back, m2 := restoreOne(t, dir)
	defer m2.Close()
	if got := mustJSON(t, back.Violations); got != wantVio {
		t.Errorf("violations diverged after compaction + restore")
	}
}

func TestDropRemovesState(t *testing.T) {
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90001", "LA", "85123", "FL"})}); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop(se.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", se.ID+".wal")); !os.IsNotExist(err) {
		t.Error("WAL file survived Drop")
	}
	m.Close()
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Restore(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 {
		t.Errorf("dropped session restored: %d", len(sessions))
	}
}

func TestRestoreUndetectedSession(t *testing.T) {
	// A session snapshotted before detection (e.g. ?stages=profile) comes
	// back with its table and rules but no violations and no engine.
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	se := sys.NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(testRules())
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	back, m2 := restoreOne(t, dir)
	defer m2.Close()
	if back.DetectionRan() {
		t.Error("undetected session restored as detected")
	}
	if len(back.Violations) != 0 {
		t.Errorf("violations = %d", len(back.Violations))
	}
	if len(back.Confirmed) != len(testRules()) {
		t.Errorf("rules lost: %d", len(back.Confirmed))
	}
}

func TestRestoreZeroRuleDetectedSession(t *testing.T) {
	// Regression: a session whose detection legitimately mined zero rules
	// (zero violations) must restore cleanly, not brick the whole data
	// directory as "corrupt persistence state".
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	se := sys.NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(nil)
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	back, m2 := restoreOne(t, dir)
	defer m2.Close()
	if !back.DetectionRan() {
		t.Error("detection flag lost")
	}
	if len(back.Violations) != 0 {
		t.Errorf("violations = %d, want 0", len(back.Violations))
	}
}

func TestRestoredIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	m.Close()
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	if _, err := m2.Restore(sys); err != nil {
		t.Fatal(err)
	}
	fresh := sys.NewSession("proj", testTable(), core.DefaultParams())
	if fresh.ID == se.ID {
		t.Errorf("new session reused restored ID %s", fresh.ID)
	}
}

func TestWALTornTailVariants(t *testing.T) {
	// Build a clean 3-record WAL, then damage it in every crash shape.
	dir := t.TempDir()
	var clean []byte
	var sizes []int64
	for seq := int64(1); seq <= 3; seq++ {
		b, err := wal.Encode(wal.Record{Seq: seq, Batch: stream.Batch{stream.DeleteRows(int(seq))}})
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, b...)
		sizes = append(sizes, int64(len(clean)))
	}

	check := func(name string, data []byte, wantRecs int, wantTorn bool) {
		t.Helper()
		p := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, ends, tornAt, err := readWAL(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ends) != len(recs) {
			t.Fatalf("%s: %d end offsets for %d records", name, len(ends), len(recs))
		}
		if len(recs) != wantRecs {
			t.Errorf("%s: %d records, want %d", name, len(recs), wantRecs)
		}
		if (tornAt >= 0) != wantTorn {
			t.Errorf("%s: tornAt = %d, want torn=%v", name, tornAt, wantTorn)
		}
		for i, r := range recs {
			if r.Seq != int64(i+1) {
				t.Errorf("%s: record %d has seq %d", name, i, r.Seq)
			}
		}
	}
	check("clean", clean, 3, false)
	check("empty", nil, 0, false)
	check("torn-header", clean[:sizes[1]+5], 2, true)
	check("mid-payload", clean[:sizes[2]-3], 2, true)
	check("cut-at-length-prefix", clean[:sizes[1]+3], 2, true)
	check("garbage-appended", append(append([]byte{}, clean...), 0xde, 0xad, 0xbe, 0xef), 3, true)
	bitflip := append([]byte{}, clean...)
	bitflip[sizes[1]+12] ^= 0x01 // inside record 3's payload
	check("bit-flip-tail", bitflip, 2, true)
	check("only-garbage", []byte(strings.Repeat("\xff\x00", 32)), 0, true)
}

func TestRestoreTrimsTornTail(t *testing.T) {
	// Regression: a torn WAL tail must be truncated at restore, not just
	// skipped — otherwise batches journaled after recovery land behind
	// the garbage and are silently lost on the NEXT restart.
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90002", "SD", "85125", "CA"})}); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal", se.ID+".wal")
	m.Close()

	// Crash artifact: garbage bytes after the clean record.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First recovery discards the tail and keeps journaling.
	back, m2 := restoreOne(t, dir)
	if _, err := back.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"10002", "NY", "21112", "NY"})}); err != nil {
		t.Fatal(err)
	}
	wantRows := back.Table.NumRows()
	wantVio := mustJSON(t, back.Violations)
	m2.Close()

	// Second recovery must see the post-recovery batch.
	back2, m3 := restoreOne(t, dir)
	defer m3.Close()
	if back2.Table.NumRows() != wantRows {
		t.Fatalf("post-recovery batch lost: %d rows, want %d", back2.Table.NumRows(), wantRows)
	}
	if got := mustJSON(t, back2.Violations); got != wantVio {
		t.Errorf("violations diverged after double crash:\n got %s\nwant %s", got, wantVio)
	}
}

func TestInvalidSessionID(t *testing.T) {
	m, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Journal(context.Background(), "../escape", 1, stream.Batch{stream.DeleteRows(0)}); err == nil {
		t.Error("path-escaping id should be rejected")
	}
	if err := m.Drop("a/b"); err == nil {
		t.Error("path-escaping id should be rejected")
	}
}

// TestBackupAccessors: Files hands the backup endpoint the session's
// files byte for byte as crash recovery reads them — the snapshot file,
// and each journal segment that holds bytes — and ParseImage + Restore
// bring the session back from them.
func TestBackupAccessors(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if files, err := m.Files("s1"); files != nil || err != nil {
		t.Fatalf("files of an unknown session: %d, err %v", len(files), err)
	}
	if _, err := m.Files("../escape"); err == nil {
		t.Error("path-escaping id should be rejected")
	}
	m.Close()

	se, m := newDetectedSession(t, dir)
	defer m.Close()
	sameAsDisk := func(want ...string) []File {
		t.Helper()
		files, err := m.Files(se.ID)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name)
			if onDisk, err := os.ReadFile(filepath.Join(dir, f.Name)); err != nil || !bytes.Equal(onDisk, f.Data) {
				t.Errorf("%s: %d bytes, the file %d (err %v)", f.Name, len(f.Data), len(onDisk), err)
			}
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("files %v, want %v", names, want)
		}
		return files
	}
	sameAsDisk("snap/" + se.ID + ".snap")
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90002", "SD", "85125", "CA"})}); err != nil {
		t.Fatal(err)
	}
	files := sameAsDisk("snap/"+se.ID+".snap", "wal/"+se.ID+".wal")
	img, err := ParseImage(files)
	if err != nil || img.ID != se.ID {
		t.Fatalf("image of %s: %+v, err %v", se.ID, img, err)
	}
	back, seq, err := img.Restore(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()), nil)
	if err != nil || seq != 1 {
		t.Fatalf("restore: seq %d, err %v; want seq 1", seq, err)
	}
	if got, want := mustJSON(t, back.Violations), mustJSON(t, se.Violations); got != want {
		t.Fatalf("restored violations:\n got %s\nwant %s", got, want)
	}
}
