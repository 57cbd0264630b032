package persist

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/table"
)

// TestRestoreTableVersion1DataDir: testdata/table-v1/data is a data
// directory the last release to write table.bin version 1 left behind:
// one session over the golden zip table with the rules its upload mined,
// seven delta batches (appends, updates and one delete) at a compaction
// every four — the checkpoint at seq 4, its table in version 1, and three
// batches in the journal — with what that writer saw beside it
// (writer.csv, writer_violations.json, and writer_since.json, the diff
// each cursor from 4 on answered). Restored today the session holds the
// writer's table, violations a fresh detection gives byte for byte, and
// the writer's cursors resolve to the writer's diffs; its next checkpoint
// writes version 2, which restores to the same.
func TestRestoreTableVersion1DataDir(t *testing.T) {
	src := filepath.Join("testdata", "table-v1")
	dir := t.TempDir()
	for _, name := range []string{"snap/s1.snap", "wal/s1.wal", "wal/s1.wal.1"} {
		b, err := os.ReadFile(filepath.Join(src, "data", name))
		if err == nil {
			err = os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snap", "s1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tableVersion(t, "s1", snap); got != 1 {
		t.Fatalf("the committed checkpoint holds table.bin version %d, want 1", got)
	}
	f, err := os.Open(filepath.Join(src, "writer.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := table.ReadCSV("zip", f)
	if err != nil {
		t.Fatal(err)
	}
	wantVio, err := os.ReadFile(filepath.Join(src, "writer_violations.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantSince map[string]json.RawMessage
	if b, err := os.ReadFile(filepath.Join(src, "writer_since.json")); err != nil || json.Unmarshal(b, &wantSince) != nil || len(wantSince) != 4 {
		t.Fatalf("writer_since.json: %v, %d cursors", err, len(wantSince))
	}

	for round := 0; round < 2; round++ {
		back, m := restoreOne(t, dir)
		// (1) The writer's table: its rows, and — being canonical — its
		// encoding.
		if back.Table.NumRows() != want.NumRows() {
			t.Fatalf("round %d: %d rows, the writer had %d", round, back.Table.NumRows(), want.NumRows())
		}
		for r := 0; r < want.NumRows(); r++ {
			if !reflect.DeepEqual(back.Table.Row(r), want.Row(r)) {
				t.Fatalf("round %d: row %d = %q, the writer had %q", round, r, back.Table.Row(r), want.Row(r))
			}
		}
		if string(back.Table.EncodeBinaryBytes()) != string(want.EncodeBinaryBytes()) {
			t.Fatalf("round %d: the restored table encodes unlike the writer's", round)
		}
		// (2) Violations: the writer's, and a fresh detection's.
		got := mustJSON(t, back.Violations)
		if got != string(wantVio) {
			t.Fatalf("round %d: violations diverge from the writer's:\n got %s\nwant %s", round, got, wantVio)
		}
		res, err := detect.New(back.Table, detect.Options{}).DetectAllContext(context.Background(), back.Discovered, 1)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := mustJSON(t, res.Violations); got != fresh {
			t.Fatalf("round %d: violations diverge from a fresh detection:\n got %s\nwant %s", round, got, fresh)
		}
		// (3) The writer's cursors — in round 1 those the checkpoint at
		// seq 7 left in the journal, none before it (a cursor older than
		// the last checkpoint answers a reset).
		eng, err := back.Stream()
		if err != nil {
			t.Fatal(err)
		}
		if eng.Seq() != 7 {
			t.Fatalf("round %d: restored at seq %d, want 7", round, eng.Seq())
		}
		for c, diff := range wantSince {
			seq, _ := strconv.ParseInt(c, 10, 64)
			if round == 1 && seq < 7 {
				continue
			}
			d, err := eng.Since(seq)
			if err != nil {
				t.Fatal(err)
			}
			if d.Reset || mustJSON(t, d) != string(diff) {
				t.Fatalf("round %d: since=%d answers %s, the writer answered %s", round, seq, mustJSON(t, d), diff)
			}
		}
		if round == 0 {
			if err := back.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
	}
	snap, err = os.ReadFile(filepath.Join(dir, "snap", "s1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tableVersion(t, "s1", snap); got != 2 {
		t.Fatalf("a checkpoint after the restore wrote table.bin version %d, want 2", got)
	}
}

// tableVersion is the table.bin version of a snapshot file.
func tableVersion(t *testing.T, stem string, file []byte) byte {
	t.Helper()
	snap, err := decodeSnapFile(stem, file)
	if err != nil {
		t.Fatal(err)
	}
	return snap.TableData[len("ANMTBL")]
}
