package persist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/stream"
)

// shardedSystem is a system whose sessions run K-shard engines.
func shardedSystem(k int) *core.System {
	cfg := core.DefaultSystemConfig()
	cfg.Shards = k
	return core.NewSystemWith(docstore.NewMem(), cfg)
}

// newShardedSession builds a session of a K-shard system with rules
// installed and detection run, attached to a fresh manager at dir.
func newShardedSession(t *testing.T, dir string, k int) (*core.Session, *Manager) {
	t.Helper()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	se := shardedSystem(k).NewSession("proj", testTable(), core.DefaultParams())
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

// shardBatches drives three batches through the sharded session.
func shardBatches(t *testing.T, se *core.Session) {
	t.Helper()
	batches := []stream.Batch{
		{stream.AppendRows([]string{"90001", "SF", "85125", "CA"})},
		{stream.UpdateCell(0, "city", "NY")},
		{stream.AppendRows([]string{"85777", "LA", "21112", "NY"}), stream.DeleteRows(1)},
	}
	for i, b := range batches {
		if _, err := se.ApplyDeltasCtx(context.Background(), b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// TestShardedSessionJournalsOneWAL: a sharded session journals one
// record per batch into the one session WAL — its two segment files, no
// per-shard file — and checkpoint and drop treat it like any session's.
func TestShardedSessionJournalsOneWAL(t *testing.T) {
	dir := t.TempDir()
	se, m := newShardedSession(t, dir, 4)
	defer m.Close()
	shardBatches(t, se)
	walFiles := func() []string {
		t.Helper()
		entries, err := os.ReadDir(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	if got := walFiles(); len(got) != 2 || got[0] != se.ID+".wal" || got[1] != se.ID+".wal.1" {
		t.Fatalf("wal/ holds %v, want only %s.wal and %s.wal.1", got, se.ID, se.ID)
	}
	recs, _, tornAt, err := readWAL(m.segPath(se.ID, 0))
	if err != nil || tornAt >= 0 {
		t.Fatalf("recs=%d tornAt=%d err=%v", len(recs), tornAt, err)
	}
	if len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("session WAL holds %d records, want seqs 1..3", len(recs))
	}
	if st, ok := m.Status(se.ID); !ok || st.WALRecords != 3 {
		t.Fatalf("status = %+v, want 3 records", st)
	}

	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(m.segPath(se.ID, 0)); size != 0 {
		t.Fatalf("WAL not reset by checkpoint (size %d)", size)
	}
	// Journaling continues cleanly after the reset.
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "state", "NV")}); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status(se.ID); st.WALRecords != 1 || st.CheckpointSeq != 3 {
		t.Fatalf("status after checkpoint+1 batch = %+v", st)
	}

	if err := m.Drop(se.ID); err != nil {
		t.Fatal(err)
	}
	if got := walFiles(); len(got) != 0 {
		t.Fatalf("leftover WAL files %v after Drop", got)
	}
}

func TestShardedCrashRecoveryRoundTrip(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			dir := t.TempDir()
			se, m := newShardedSession(t, dir, k)
			shardBatches(t, se)
			wantVio := mustJSON(t, se.Violations)
			wantRows := se.Table.NumRows()
			m.Close() // crash: no final checkpoint

			back, m2 := restoreInto(t, dir, shardedSystem(k))
			defer m2.Close()
			if back.Table.NumRows() != wantRows {
				t.Fatalf("restored rows = %d, want %d", back.Table.NumRows(), wantRows)
			}
			if got := mustJSON(t, back.Violations); got != wantVio {
				t.Fatalf("restored violations diverged:\n got %s\nwant %s", got, wantVio)
			}
			if back.Shards() != k {
				t.Fatalf("restored shard count = %d, want %d", back.Shards(), k)
			}
			// The restored engine is a live sharded coordinator at the
			// pre-crash sequence; new deltas keep working.
			eng, err := back.Stream()
			if err != nil {
				t.Fatal(err)
			}
			if eng.Seq() != 3 {
				t.Fatalf("restored seq = %d, want 3", eng.Seq())
			}
			if st := back.EngineStats(); st.Kind != "sharded" || st.Sharded == nil || st.Sharded.Shards != k {
				t.Fatalf("restored engine stats = %+v", st)
			}
			if _, err := back.ApplyDeltasCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "state", "FL")}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreRefusesLegacyShardWALs: a data directory written by the
// per-shard layout still carries <id>.shard<k>.wal files whose batches
// the session WAL does not hold; Restore must fail naming them, not read
// around them.
func TestRestoreRefusesLegacyShardWALs(t *testing.T) {
	dir := t.TempDir()
	se, m := newShardedSession(t, dir, 2)
	shardBatches(t, se)
	m.Close()
	leftover := se.ID + ".shard0.wal"
	if err := os.WriteFile(filepath.Join(dir, "wal", leftover), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	_, err = m2.Restore(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
	if err == nil || !strings.Contains(err.Error(), leftover) {
		t.Fatalf("Restore over a leftover %s: err = %v, want a refusal naming it", leftover, err)
	}
	// The refusal touched nothing: once the operator removes the file the
	// same directory restores in full.
	if err := os.Remove(filepath.Join(dir, "wal", leftover)); err != nil {
		t.Fatal(err)
	}
	sessions, err := m2.Restore(shardedSystem(2))
	if err != nil || len(sessions) != 1 {
		t.Fatalf("restore after removing the leftover: %d sessions, err %v", len(sessions), err)
	}
	if eng, err := sessions[0].Stream(); err != nil || eng.Seq() != 3 {
		t.Fatalf("restored seq: %v, %v", eng, err)
	}
}

// TestShardedJournalFsync exercises the fsync path end to end: sharded
// journaling with power-loss durability on, then a clean recovery.
func TestShardedJournalFsync(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	se := shardedSystem(2).NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(testRules())
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"90001", "SF", "85125", "CA"})}); err != nil {
		t.Fatal(err)
	}
	wantVio := mustJSON(t, se.Violations)
	m.Close()
	back, m2 := restoreInto(t, dir, shardedSystem(2))
	defer m2.Close()
	if got := mustJSON(t, back.Violations); got != wantVio {
		t.Fatalf("fsync recovery diverged:\n got %s\nwant %s", got, wantVio)
	}
}

// TestRestoreTakesTheRestoringTopology: a data directory written by a
// K=4 system restores into K=1 and K=2 systems with byte-identical
// violations and since-cursor answers, each running the restoring
// system's topology — where engines run is the deployment's choice, not
// the snapshot's.
func TestRestoreTakesTheRestoringTopology(t *testing.T) {
	dir := t.TempDir()
	se, m := newShardedSession(t, dir, 4)
	shardBatches(t, se)
	eng, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	wantVio := mustJSON(t, se.Violations)
	var wantSince []string
	for c := int64(0); c <= eng.Seq(); c++ {
		d, err := eng.Since(c)
		if err != nil {
			t.Fatal(err)
		}
		wantSince = append(wantSince, mustJSON(t, d))
	}
	m.Close()
	// Write the header the way an older release did, recording the
	// writer's K: the field still decodes, and decides nothing.
	path := m.snapPath(se.ID)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := snapPrefix + int(binary.LittleEndian.Uint32(b[len(snapMagic):]))
	old := binary.LittleEndian.AppendUint32([]byte(snapMagic), uint32(end-snapPrefix+len(`"shards":4,`)))
	old = append(append(old, `{"shards":4,`...), b[snapPrefix+1:end]...)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
	if err := os.WriteFile(path, append(old, b[end+crc32.Size:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			back, m2 := restoreInto(t, dir, shardedSystem(k))
			defer m2.Close()
			if got := mustJSON(t, back.Violations); got != wantVio {
				t.Fatalf("violations diverged:\n got %s\nwant %s", got, wantVio)
			}
			beng, err := back.Stream()
			if err != nil {
				t.Fatal(err)
			}
			for c, want := range wantSince {
				d, err := beng.Since(int64(c))
				if err != nil {
					t.Fatal(err)
				}
				if got := mustJSON(t, d); got != want {
					t.Fatalf("since=%d diverged:\n got %s\nwant %s", c, got, want)
				}
			}
			if st := back.EngineStats(); st.Shards != k {
				t.Fatalf("restored engine runs %d shard(s), want the restoring system's %d", st.Shards, k)
			}
		})
	}
}
