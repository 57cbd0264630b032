package persist

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// newSessions builds n detected, checkpointed sessions (s1..sn) over one
// manager at dir, session i holding i extra rows so no two are alike.
func newSessions(t *testing.T, dir string, n int) ([]*core.Session, *Manager) {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(docstore.NewMem())
	out := make([]*core.Session, n)
	for i := range out {
		tbl := testTable()
		for j := 0; j <= i; j++ {
			tbl.MustAppend("9000"+fmt.Sprint(j%3), "NY", "8512"+fmt.Sprint(j%4), "CA")
		}
		se := sys.NewSession("proj", tbl, core.DefaultParams())
		se.UseRules(testRules())
		if _, err := se.RunDetection(context.Background()); err != nil {
			t.Fatal(err)
		}
		se.SetPersist(m)
		if err := se.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		out[i] = se
	}
	return out, m
}

// dirState maps every file under dir to its size and modification time;
// os.SameFile would not do, a rewritten file may get its old inode back.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			out[path] = fmt.Sprint(fi.Size(), fi.ModTime().UnixNano())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointWritesOnlyOwnSession: with 8 sessions in the directory a
// checkpoint rewrites its own snapshot file — the table bytes, the header
// and a few bytes of framing — and its own WAL, and nothing else.
func TestCheckpointWritesOnlyOwnSession(t *testing.T) {
	dir := t.TempDir()
	sessions, m := newSessions(t, dir, 8)
	defer m.Close()
	for _, se := range sessions {
		if _, err := se.ApplyDeltas(stream.Batch{stream.AppendRows([]string{"90002", "SD", "85125", "CA"})}); err != nil {
			t.Fatal(err)
		}
	}
	before := dirState(t, dir)
	se := sessions[4]
	snap := se.Snapshot()
	payload := len(snap.AppendTable(nil)) + len(mustJSON(t, snap))
	if err := m.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	own := map[string]bool{m.snapPath(se.ID): true, m.segPath(se.ID, 0): true}
	after := dirState(t, dir)
	if len(after) != len(before) {
		t.Errorf("checkpoint changed the file set: %d files, were %d", len(after), len(before))
	}
	for path, state := range after {
		if changed := state != before[path]; changed != own[path] {
			t.Errorf("%s: changed=%v, want %v", path, changed, own[path])
		}
	}
	if size := fileSize(m.snapPath(se.ID)); size < int64(payload) || float64(size) > 1.02*float64(payload) {
		t.Errorf("snapshot file is %d bytes for %d of table and header", size, payload)
	}
	if st, _ := m.Status(se.ID); st.WALRecords != 0 || st.CheckpointSeq != snap.Seq {
		t.Errorf("status after checkpoint = %+v", st)
	}
	if st, _ := m.Status(sessions[0].ID); st.WALRecords != 1 {
		t.Errorf("another session's status after the checkpoint = %+v", st)
	}
}

// TestRestoreConcurrent rehydrates 8 sessions on as many goroutines as
// GOMAXPROCS allows (run it under -race): all of them come back, sorted,
// byte-identical; with one snapshot corrupt the error names it and no
// session is left attached to the manager.
func TestRestoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	sessions, m := newSessions(t, dir, 8)
	want := map[string]string{}
	for _, se := range sessions {
		if _, err := se.ApplyDeltas(stream.Batch{stream.UpdateCell(0, "city", "SF")}); err != nil {
			t.Fatal(err)
		}
		want[se.ID] = mustJSON(t, se.Violations)
	}
	m.Close()

	victim := filepath.Join(dir, "snap", "s5.snap")
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-9] ^= 0x10 // inside the last cell: the table checksum catches it
	if err := os.WriteFile(victim, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Restore(core.NewSystem(docstore.NewMem())); err == nil || !strings.Contains(err.Error(), "s5") {
		t.Fatalf("restore over a corrupt s5.snap: err = %v, want one naming it", err)
	}
	for id := range want {
		if st, ok := m2.Status(id); ok {
			t.Errorf("%s is attached to the manager after a failed restore: %+v", id, st)
		}
	}

	if err := os.WriteFile(victim, good, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := m2.Restore(core.NewSystem(docstore.NewMem()))
	if err != nil || len(back) != len(want) {
		t.Fatalf("restore: %d sessions, err %v", len(back), err)
	}
	for i, se := range back {
		if i > 0 && back[i-1].ID >= se.ID {
			t.Errorf("sessions out of order: %s before %s", back[i-1].ID, se.ID)
		}
		if got := mustJSON(t, se.Violations); got != want[se.ID] {
			t.Errorf("%s: violations diverged after restore", se.ID)
		}
		if st, ok := m2.Status(se.ID); !ok || st.WALRecords != 1 {
			t.Errorf("%s: status %+v ok=%v, want 1 replayed record", se.ID, st, ok)
		}
	}
}

// TestRestoreRefuseslegacyStore: a data directory of the single-file
// layout is refused by the file's name with the way out, not read and
// not silently served empty.
func TestRestoreRefuseslegacyStore(t *testing.T) {
	dir := t.TempDir()
	_, m := newDetectedSession(t, dir)
	defer m.Close()
	legacy := filepath.Join(dir, "store.json")
	if err := os.WriteFile(legacy, []byte(`{"next_id":1,"collections":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := m.Restore(core.NewSystem(docstore.NewMem()))
	if err == nil {
		t.Fatal("restore over a store.json succeeded")
	}
	for _, want := range []string{legacy, "anmat backup", "anmat restore"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}
	if back, err := m.Restore(core.NewSystem(docstore.NewMem())); err != nil || len(back) != 1 {
		t.Fatalf("restore after removing it: %d sessions, err %v", len(back), err)
	}
}

// TestRestoreChecksSnapshotNames: the header's session ID must be the
// file's own stem and a valid ID — checked before any WAL path is built
// from it — and a temporary file a dead checkpoint left is removed.
func TestRestoreChecksSnapshotNames(t *testing.T) {
	dir := t.TempDir()
	se, m := newDetectedSession(t, dir)
	defer m.Close()
	own, err := os.ReadFile(m.snapPath(se.ID))
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(dir, "outside.wal")
	if err := os.WriteFile(outside, []byte("not a log: Replay would trim this to nothing"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, _, err := m.Snapshot(se.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap.ID = "../outside"
	escaping, err := encodeSnapFile(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string // want: what the refusal must name
		content    []byte
	}{
		{"s9.snap", "s9.snap", own},
		{"...snap", `".."`, own},
		{"s8.snap", "s8.snap", escaping},
	} {
		path := filepath.Join(dir, "snap", c.name)
		if err := os.WriteFile(path, c.content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Restore(core.NewSystem(docstore.NewMem())); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal naming %s", c.name, err, c.want)
		}
		os.Remove(path)
	}
	if b, _ := os.ReadFile(outside); len(b) == 0 {
		t.Error("a refused snapshot still got a file outside wal/ trimmed")
	}
	tmp := m.snapPath(se.ID) + ".tmp"
	if err := os.WriteFile(tmp, own[:len(own)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err := m.Restore(core.NewSystem(docstore.NewMem())); err != nil || len(back) != 1 {
		t.Fatalf("restore beside a stale temporary: %d sessions, err %v", len(back), err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale %s survived Restore (err=%v)", tmp, err)
	}
}

// readBack is the read side as Restore runs it: the file decoder, then
// the table decoder over the section the file decoder does not check.
func readBack(stem string, b []byte) (*core.SessionSnapshot, error) {
	snap, err := decodeSnapFile(stem, b)
	if err != nil {
		return nil, err
	}
	if _, err := table.DecodeBinaryBytes(snap.TableData); err != nil {
		return nil, err
	}
	return snap, nil
}

// snapFileFixture is a real checkpoint's file, and the offset its table
// section starts at.
func snapFileFixture(t testing.TB) (file []byte, tableAt int) {
	t.Helper()
	data := testTable().EncodeBinaryBytes()
	snap := &core.SessionSnapshot{ID: "s1", Project: "proj", Params: core.DefaultParams(),
		TableName: "T", TableData: data, Discovered: testRules(), Detected: true, Seq: 7, Shards: 1}
	file, err := encodeSnapFile(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	return file, len(file) - len(data)
}

// damagedSnapFiles are the ways a snapshot file goes bad, each of which
// readBack must refuse.
func damagedSnapFiles(t testing.TB) map[string][]byte {
	good, tableAt := snapFileFixture(t)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	flip := func(at int) []byte { return mutate(func(b []byte) []byte { b[at] ^= 0x04; return b }) }
	return map[string][]byte{
		"empty":              nil,
		"magic only":         good[:len(snapMagic)],
		"truncated header":   good[:tableAt/2],
		"no header checksum": good[:tableAt-2],
		"no table":           good[:tableAt],
		"truncated table":    good[:len(good)-3],
		"bad magic":          mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"version 2":          mutate(func(b []byte) []byte { b[len(snapMagic)-1] = 2; return b }),
		"header bit flip":    flip(snapPrefix + 5),
		"header crc flip":    flip(tableAt - 1),
		"length flip":        flip(snapPrefix - 4),
		"oversized length":   mutate(func(b []byte) []byte { copy(b[snapPrefix-4:], "\xff\xff\xff\xff"); return b }),
		"table bit flip":     flip(tableAt + 12),
		"table crc flip":     flip(len(good) - 1),
		"trailing byte":      append(append([]byte(nil), good...), 0),
	}
}

func TestSnapFileRoundTripAndCorruption(t *testing.T) {
	good, _ := snapFileFixture(t)
	snap, err := readBack("s1", good)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeSnapFile(nil, snap)
	if err != nil || !bytes.Equal(again, good) {
		t.Fatalf("decoded file re-encodes to %d bytes (err %v), was %d", len(again), err, len(good))
	}
	if snap.Seq != 7 || !snap.Detected || len(snap.Discovered) != 2 || snap.ConfirmedSet {
		t.Errorf("header fields lost: %+v", snap)
	}
	if _, err := readBack("s2", good); err == nil || !strings.Contains(err.Error(), `"s1"`) {
		t.Errorf("s1's snapshot under the name s2: err = %v, want one naming the header's session", err)
	}
	for name, b := range damagedSnapFiles(t) {
		if _, err := readBack("s1", b); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// FuzzDecodeSnapFile: the snapshot-file decoder never panics on bytes
// from disk, and whatever it accepts under the name s1 is s1's, carries
// exactly the bytes after the header as its table, and has a header that
// survives a re-encode.
func FuzzDecodeSnapFile(f *testing.F) {
	good, _ := snapFileFixture(f)
	f.Add(good)
	for _, b := range damagedSnapFiles(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := readBack("s1", b)
		if err != nil {
			return
		}
		if snap.ID != "s1" || !bytes.HasSuffix(b, snap.TableData) {
			t.Fatalf("accepted a file for session %q with %d table bytes of %d", snap.ID, len(snap.TableData), len(b))
		}
		again, err := encodeSnapFile(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		back, err := readBack("s1", again)
		if err != nil {
			t.Fatalf("re-encoded file refused: %v", err)
		}
		if a, b := mustJSON(t, snap), mustJSON(t, back); a != b {
			t.Fatalf("snapshot changed across a re-encode:\n%s\n%s", a, b)
		}
	})
}
