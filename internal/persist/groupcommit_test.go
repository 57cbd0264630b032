package persist

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/wal"
)

// TestGroupCommitConcurrentJournal hammers one manager from many
// sessions at once and checks every acknowledged batch is durable and
// readable, in seq order within each session's WAL.
func TestGroupCommitConcurrentJournal(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Fsync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
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
	}
}

// TestGroupCommitCoalesces pins the leader mid-round by holding the
// session lock, queues followers behind it, and checks the whole queue
// commits as one round with one fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Fsync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ws, err := m.state("s")
	if err != nil {
		t.Fatal(err)
	}
	batches0, fsyncs0 := groupBatches.Value(), groupFsyncs.Value()

	// The leader's round blocks acquiring ws.mu; followers enqueue
	// freely meanwhile (they park holding no locks).
	ws.mu.Lock()
	const followers = 7
	var done sync.WaitGroup
	var started atomic.Int64
	for seq := int64(1); seq <= followers+1; seq++ {
		done.Add(1)
		go func(seq int64) {
			defer done.Done()
			started.Add(1)
			if err := m.Journal(context.Background(), "s", seq, stream.Batch{stream.DeleteRows(int(seq))}); err != nil {
				t.Error(err)
			}
		}(seq)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.gc.mu.Lock()
		queued := len(m.gc.pending)
		leading := m.gc.leading
		m.gc.mu.Unlock()
		// One call is the blocked leader (its ticket already drained into
		// the round), the rest are parked in the queue.
		if leading && started.Load() == followers+1 && queued >= followers {
			break
		}
		if time.Now().After(deadline) {
			ws.mu.Unlock()
			t.Fatalf("leader/followers never queued: leading=%v queued=%d", leading, queued)
		}
		time.Sleep(time.Millisecond)
	}
	ws.mu.Unlock()
	done.Wait()

	recs, _, tornAt, err := readWAL(m.segPath("s", 0))
	if err != nil || tornAt >= 0 {
		t.Fatalf("read WAL: recs=%d tornAt=%d err=%v", len(recs), tornAt, err)
	}
	if len(recs) != followers+1 {
		t.Fatalf("%d records, want %d", len(recs), followers+1)
	}
	gotBatches := groupBatches.Value() - batches0
	gotFsyncs := groupFsyncs.Value() - fsyncs0
	if gotBatches != followers+1 {
		t.Fatalf("batches counter advanced %v, want %d", gotBatches, followers+1)
	}
	// Two rounds at most: the pinned leader's own record, then the
	// coalesced followers. Strictly fewer fsyncs than batches is the
	// whole point.
	if gotFsyncs > 2 {
		t.Fatalf("%v fsyncs for %d batches; want coalescing into <= 2 rounds", gotFsyncs, followers+1)
	}
}

// TestGroupCommitRoundRollback forces a failure in the second session
// of a two-session round — its WAL handle dead, or its file on a full
// device — and checks nobody in the round is acked and the sibling the
// round had already appended to is rolled back to its pre-round length:
// a failed round must leave no record behind for a batch whose caller
// saw an error. (The read-only-handle variant of this fault lives with
// the handle, in internal/wal's TestLogRollbackReadOnlyHandle.)
func TestGroupCommitRoundRollback(t *testing.T) {
	for _, fault := range []string{"closed handle", "full device"} {
		t.Run(fault, func(t *testing.T) {
			m, err := Open(t.TempDir(), Options{Fsync: true, CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			if err := m.Journal(ctx, "a", 1, stream.Batch{stream.DeleteRows(1)}); err != nil {
				t.Fatal(err)
			}
			wsA, _ := m.state("a")
			wsB, _ := m.state("b")
			switch fault {
			case "closed handle":
				if err := m.Journal(ctx, "b", 1, stream.Batch{stream.DeleteRows(1)}); err != nil {
					t.Fatal(err)
				}
				wsB.segs[0].Close()
				defer func() { wsB.segs[0] = nil }() // m.Close must not close it twice
			case "full device":
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("no /dev/full on this platform")
				}
				if err := os.Symlink("/dev/full", m.segPath("b", 0)); err != nil {
					t.Fatal(err)
				}
			}
			batches0, bytes0 := groupBatches.Value(), walBytes.Value()

			enc, err := wal.Encode(wal.Record{Seq: 2, Batch: stream.Batch{stream.DeleteRows(2)}})
			if err != nil {
				t.Fatal(err)
			}
			round := []*commitReq{
				{ws: wsA, id: "a", seq: 2, enc: enc, done: make(chan struct{})},
				{ws: wsB, id: "b", seq: 2, enc: enc, done: make(chan struct{})},
			}
			m.commitRound(round)
			for _, req := range round {
				<-req.done
				if req.err == nil {
					t.Fatalf("session %s was acked in a failed round", req.id)
				}
			}
			recs, _, tornAt, err := readWAL(m.segPath("a", 0))
			if err != nil || tornAt >= 0 {
				t.Fatalf("recs=%d tornAt=%d err=%v", len(recs), tornAt, err)
			}
			if len(recs) != 1 || recs[0].Seq != 1 {
				t.Fatalf("failed round left %d records in the sibling WAL (want only seq 1)", len(recs))
			}
			// The round that failed must not count toward the compaction
			// trigger or the metrics.
			if st, ok := m.Status("a"); !ok || st.WALRecords != 1 {
				t.Fatalf("status after failed round: %+v", st)
			}
			if groupBatches.Value() != batches0 || walBytes.Value() != bytes0 {
				t.Fatal("failed round advanced the journal metrics")
			}
			// The sibling keeps journaling where it left off.
			if err := m.Journal(ctx, "a", 2, stream.Batch{stream.DeleteRows(2)}); err != nil {
				t.Fatal(err)
			}
			if recs, _, tornAt, _ := readWAL(m.segPath("a", 0)); tornAt >= 0 || len(recs) != 2 || recs[1].Seq != 2 {
				t.Fatalf("after retry: recs=%d tornAt=%d", len(recs), tornAt)
			}
		})
	}
}

// TestGroupCommitFileContents interleaves batches to two sessions (one
// through the JournalSharded forwarder) and checks each session's WAL is
// byte for byte the concatenation of its records' wal.Encode outputs, in
// sequence order: one record per batch, nothing else — all of it in the
// first segment, no checkpoint having cut the journal.
func TestGroupCommitFileContents(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Fsync: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want := map[string][]byte{}
	for seq := int64(1); seq <= 5; seq++ {
		for _, id := range []string{"s", "sharded"} {
			batch := stream.Batch{stream.UpdateCell(int(seq), "c", id)}
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

// BenchmarkWALJournal measures fsync-on journal throughput under 8
// concurrent writers to one session. fsync_batches_per_commit is the
// measured coalescing factor (batches amortized per fsync).
func BenchmarkWALJournal(b *testing.B) {
	b.Run("group/w8", func(b *testing.B) {
		m, err := Open(b.TempDir(), Options{Fsync: true, CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		batch := stream.Batch{stream.AppendRows([]string{"alice", "2024-01-02", "10.50"})}
		var seq atomic.Int64
		batches0, fsyncs0 := groupBatches.Value(), groupFsyncs.Value()
		b.SetParallelism(8) // >= 8 writer goroutines regardless of GOMAXPROCS
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := m.Journal(context.Background(), "bench", seq.Add(1), batch); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		if df := groupFsyncs.Value() - fsyncs0; df > 0 {
			b.ReportMetric((groupBatches.Value()-batches0)/df, "fsync_batches_per_commit")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "batches/sec")
	})
}
