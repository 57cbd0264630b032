package persist

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/obs/obstest"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/wal"
)

// openJournal opens a manager that never compacts.
func openJournal(t *testing.T, fsync bool) *Manager {
	t.Helper()
	m, err := Open(t.TempDir(), Options{Fsync: fsync, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestJournalConcurrentSessions hammers one manager from many sessions at
// once and checks every acknowledged batch is durable and readable, in
// seq order within its session's first segment, the second left empty.
func TestJournalConcurrentSessions(t *testing.T) {
	m := openJournal(t, true)
	const sessions, perSession = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for seq := int64(1); seq <= perSession; seq++ {
				if err := m.Journal(context.Background(), id, seq, stream.Batch{stream.DeleteRows(int(seq))}); err != nil {
					errs <- err
					return
				}
			}
		}(string(rune('a' + s)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for s := 0; s < sessions; s++ {
		id := string(rune('a' + s))
		recs, _, tornAt, err := readWAL(m.segPath(id, 0))
		if err != nil {
			t.Fatal(err)
		}
		if tornAt >= 0 {
			t.Fatalf("session %s: torn WAL at %d", id, tornAt)
		}
		if len(recs) != perSession {
			t.Fatalf("session %s: %d records, want %d", id, len(recs), perSession)
		}
		for i, rec := range recs {
			if rec.Seq != int64(i+1) {
				t.Fatalf("session %s: record %d has seq %d", id, i, rec.Seq)
			}
		}
		if size := fileSize(m.segPath(id, 1)); size != 0 {
			t.Fatalf("session %s: %d bytes in the second segment before any checkpoint", id, size)
		}
	}
}

// TestJournalIndependentFailure journals to four sessions at once while
// one of them cannot write its journal — its handle dead, or its file on
// a full device. No commit depends on another session's: every batch of
// the healthy sessions is acknowledged and on disk; every call on the
// broken one reports the error, leaves its file at its pre-commit length
// and counts nowhere. (Rollback of a partly written record is the log's
// own business: internal/wal's TestLogRollback*.)
func TestJournalIndependentFailure(t *testing.T) {
	for _, fault := range []string{"closed handle", "full device"} {
		t.Run(fault, func(t *testing.T) {
			m := openJournal(t, true)
			ctx := context.Background()
			const broken = "x"
			ws, _ := m.state(broken)
			wantBroken := 0
			switch fault {
			case "closed handle":
				if err := m.Journal(ctx, broken, 1, stream.Batch{stream.DeleteRows(1)}); err != nil {
					t.Fatal(err)
				}
				wantBroken = 1
				ws.segs[0].Close()
				t.Cleanup(func() { ws.segs[0] = nil }) // runs before m.Close, which must not close it twice
			case "full device":
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("no /dev/full on this platform")
				}
				if err := os.Symlink("/dev/full", m.segPath(broken, 0)); err != nil {
					t.Fatal(err)
				}
			}
			sizeBroken := fileSize(m.segPath(broken, 0))
			batches0, bytes0 := obstest.Value(t, "anmat_wal_group_commit_batches_total", nil), obstest.Value(t, "anmat_persist_wal_bytes_total", nil)

			const rounds = 25
			healthy := []string{"a", "b", "c"}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, id := range append(healthy, broken) {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					<-start
					for seq := int64(2); seq < 2+rounds; seq++ {
						err := m.Journal(ctx, id, seq, stream.Batch{stream.DeleteRows(int(seq))})
						if (err == nil) != (id != broken) {
							t.Errorf("session %s, seq %d: err = %v", id, seq, err)
						}
					}
				}(id)
			}
			close(start)
			wg.Wait()

			var healthyBytes int64
			for _, id := range healthy {
				recs, _, tornAt, err := readWAL(m.segPath(id, 0))
				if err != nil || tornAt >= 0 || len(recs) != rounds {
					t.Fatalf("session %s: recs=%d tornAt=%d err=%v, want %d whole records", id, len(recs), tornAt, err, rounds)
				}
				if st, _ := m.Status(id); st.WALRecords != rounds {
					t.Errorf("session %s: status %+v, want %d records", id, st, rounds)
				}
				healthyBytes += fileSize(m.segPath(id, 0))
			}
			if size := fileSize(m.segPath(broken, 0)); size != sizeBroken {
				t.Errorf("broken session: journal is %d bytes, %d before the failed commits", size, sizeBroken)
			}
			if st, _ := m.Status(broken); st.WALRecords != wantBroken {
				t.Errorf("broken session: status %+v, want %d records", st, wantBroken)
			}
			if got, want := obstest.Value(t, "anmat_wal_group_commit_batches_total", nil)-batches0, float64(rounds*len(healthy)); got != want {
				t.Errorf("batches counter advanced %v, want %v", got, want)
			}
			if got := obstest.Value(t, "anmat_persist_wal_bytes_total", nil) - bytes0; got != float64(healthyBytes) {
				t.Errorf("bytes counter advanced %v, want the healthy sessions' %d", got, healthyBytes)
			}
		})
	}
}

// TestJournalOneSessionSerializes calls Journal for one session from two
// goroutines (no engine lock in between, as a caller other than a
// session could): the journal lock alone must leave two whole records.
func TestJournalOneSessionSerializes(t *testing.T) {
	m := openJournal(t, true)
	var wg sync.WaitGroup
	for seq := int64(1); seq <= 2; seq++ {
		wg.Add(1)
		go func(seq int64) {
			defer wg.Done()
			batch := stream.Batch{stream.AppendRows([]string{"90001", "LA"}, []string{"85123", "FL"})}
			if err := m.Journal(context.Background(), "s", seq, batch); err != nil {
				t.Error(err)
			}
		}(seq)
	}
	wg.Wait()
	recs, _, tornAt, err := readWAL(m.segPath("s", 0))
	if err != nil || tornAt >= 0 || len(recs) != 2 {
		t.Fatalf("recs=%d tornAt=%d err=%v, want two whole records", len(recs), tornAt, err)
	}
	if recs[0].Seq+recs[1].Seq != 3 {
		t.Fatalf("records carry seqs %d and %d, want 1 and 2", recs[0].Seq, recs[1].Seq)
	}
	if st, _ := m.Status("s"); st.WALRecords != 2 {
		t.Fatalf("status %+v, want 2 records", st)
	}
}

// TestJournalCounters reads the two counters by the family names the
// benchmark scrapes: every acknowledged batch counts once, and costs one
// fsync exactly when the manager fsyncs.
func TestJournalCounters(t *testing.T) {
	scrape := func(name string) float64 {
		samples, _, err := obs.ParseText(obstest.Text())
		if err != nil {
			t.Fatal(err)
		}
		return obs.SumSamples(samples, name, nil)
	}
	for _, fsync := range []bool{true, false} {
		m := openJournal(t, fsync)
		batches0 := scrape("anmat_wal_group_commit_batches_total")
		fsyncs0 := scrape("anmat_wal_group_commit_fsyncs_total")
		const n = 5
		for seq := int64(1); seq <= n; seq++ {
			if err := m.Journal(context.Background(), "s", seq, stream.Batch{stream.DeleteRows(int(seq))}); err != nil {
				t.Fatal(err)
			}
		}
		wantFsyncs := 0.0
		if fsync {
			wantFsyncs = n
		}
		if got := scrape("anmat_wal_group_commit_batches_total") - batches0; got != n {
			t.Errorf("fsync=%v: batches_total advanced %v for %d batches", fsync, got, n)
		}
		if got := scrape("anmat_wal_group_commit_fsyncs_total") - fsyncs0; got != wantFsyncs {
			t.Errorf("fsync=%v: fsyncs_total advanced %v, want %v", fsync, got, wantFsyncs)
		}
	}
}

// TestJournalFileContents interleaves batches to two sessions (one
// through the JournalSharded forwarder) and checks each session's WAL is
// byte for byte the concatenation of its records' wal.Encode outputs, in
// sequence order: one record per batch, nothing else — all of it in the
// first segment, no checkpoint having cut the journal.
func TestJournalFileContents(t *testing.T) {
	m := openJournal(t, true)
	want := map[string][]byte{}
	for seq := int64(1); seq <= 5; seq++ {
		for _, id := range []string{"s", "sharded"} {
			batch := stream.Batch{stream.UpdateCell(int(seq), "c", id)}
			var err error
			if id == "sharded" {
				err = m.JournalSharded(context.Background(), id, 4, seq, batch)
			} else {
				err = m.Journal(context.Background(), id, seq, batch)
			}
			if err != nil {
				t.Fatal(err)
			}
			enc, err := wal.Encode(wal.Record{Seq: seq, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			want[id] = append(want[id], enc...)
		}
	}
	for id, w := range want {
		got, err := os.ReadFile(m.segPath(id, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("session %s: WAL is %d bytes, want the %d-byte concatenation of its encoded records", id, len(got), len(w))
		}
	}
	entries, err := os.ReadDir(filepath.Join(m.Dir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*len(want) {
		t.Fatalf("%d files under wal/, want two segments per session (%d)", len(entries), 2*len(want))
	}
	for id := range want {
		if size := fileSize(m.segPath(id, 1)); size != 0 {
			t.Fatalf("session %s: %d bytes in the second segment before any checkpoint", id, size)
		}
	}
}
