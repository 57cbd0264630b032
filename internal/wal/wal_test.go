package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anmat/anmat/internal/stream"
)

// enc encodes a one-op record carrying seq.
func enc(t testing.TB, seq int64) []byte {
	t.Helper()
	b, err := Encode(Record{Seq: seq, Batch: stream.Batch{stream.DeleteRows(int(seq))}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// logBytes concatenates the encodings of the given seqs.
func logBytes(t testing.TB, seqs ...int64) []byte {
	t.Helper()
	var out []byte
	for _, s := range seqs {
		out = append(out, enc(t, s)...)
	}
	return out
}

// frame wraps an arbitrary payload in a valid length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

func seqsOf(recs []Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// damagedLogs are two intact records followed by one kind of damage
// each; Decode must return the two records and report the tear at their
// end. They also seed FuzzDecode.
func damagedLogs(t testing.TB) map[string][]byte {
	good := logBytes(t, 1, 2)
	third := enc(t, 3)
	withTail := func(tail []byte) []byte { return append(append([]byte(nil), good...), tail...) }

	oversized := make([]byte, 8)
	binary.LittleEndian.PutUint32(oversized[0:4], MaxRecord+1)
	// High bit set: as an int32 this length is negative, and would slip
	// past the bounds checks into a panicking slice expression.
	highBit := make([]byte, 12)
	binary.LittleEndian.PutUint32(highBit[0:4], 0x80000004)
	crcFlip := append([]byte(nil), third...)
	crcFlip[len(crcFlip)-1] ^= 0x01

	return map[string][]byte{
		"torn header":     withTail(third[:5]),
		"oversized len":   withTail(oversized),
		"short payload":   withTail(third[:len(third)-3]),
		"crc flip":        withTail(crcFlip),
		"foreign json":    withTail(frame([]byte("not a record"))),
		"foreign shape":   withTail(frame([]byte(`[1,2,3]`))),
		"high-bit length": withTail(highBit),
	}
}

func TestDecode(t *testing.T) {
	recs, ends, tornAt := Decode(nil)
	if len(recs) != 0 || len(ends) != 0 || tornAt != -1 {
		t.Fatalf("empty log: recs=%d ends=%d tornAt=%d", len(recs), len(ends), tornAt)
	}
	clean := logBytes(t, 1, 2, 3)
	recs, ends, tornAt = Decode(clean)
	if got := seqsOf(recs); !reflect.DeepEqual(got, []int64{1, 2, 3}) || tornAt != -1 {
		t.Fatalf("clean log: seqs=%v tornAt=%d", got, tornAt)
	}
	if ends[2] != int64(len(clean)) {
		t.Fatalf("clean log: last end %d, want %d", ends[2], len(clean))
	}
	goodLen := int64(len(logBytes(t, 1, 2)))
	for name, b := range damagedLogs(t) {
		t.Run(name, func(t *testing.T) {
			recs, ends, tornAt := Decode(b)
			if got := seqsOf(recs); !reflect.DeepEqual(got, []int64{1, 2}) {
				t.Fatalf("seqs = %v, want the clean prefix [1 2]", got)
			}
			if tornAt != goodLen || ends[1] != goodLen {
				t.Fatalf("tornAt=%d ends=%v, want the tear at %d", tornAt, ends, goodLen)
			}
		})
	}
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seqs      []int64
		after     int64
		want      []int64
		wantClean int
	}{
		{"empty", nil, 0, nil, 0},
		{"contiguous", []int64{1, 2, 3}, 0, []int64{1, 2, 3}, 3},
		{"stale below cursor", []int64{1, 2, 3, 4}, 2, []int64{3, 4}, 4},
		{"all stale", []int64{1, 2}, 5, nil, 2},
		{"gap", []int64{1, 2, 4, 5}, 0, []int64{1, 2}, 2},
		{"gap right after cursor", []int64{5, 6}, 3, nil, 0},
		{"repeat of a taken seq", []int64{1, 2, 2, 3}, 0, []int64{1, 2, 3}, 4},
		{"duplicate ahead", []int64{1, 2, 4, 4}, 0, []int64{1, 2}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := make([]Record, len(tc.seqs))
			for i, s := range tc.seqs {
				recs[i] = Record{Seq: s}
			}
			run, clean := Run(recs, tc.after)
			if got := seqsOf(run); !reflect.DeepEqual(got, append([]int64{}, tc.want...)) || clean != tc.wantClean {
				t.Fatalf("Run = %v clean %d, want %v clean %d", got, clean, tc.want, tc.wantClean)
			}
			if got := Batches(run); len(got) != len(run) {
				t.Fatalf("Batches dropped records: %d of %d", len(got), len(run))
			}
		})
	}
}

// TestReplay checks, per kind of damage, both the returned run and the
// length the file is trimmed to, then that a record appended after the
// trim is readable — bytes left behind a tear or gap would strand it.
func TestReplay(t *testing.T) {
	third := enc(t, 3)
	for _, tc := range []struct {
		name     string
		content  []byte
		after    int64
		want     []int64
		wantSize int
	}{
		{"clean", logBytes(t, 1, 2, 3), 0, []int64{1, 2, 3}, len(logBytes(t, 1, 2, 3))},
		{"stale records stay", logBytes(t, 1, 2, 3), 2, []int64{3}, len(logBytes(t, 1, 2, 3))},
		{"gap", logBytes(t, 1, 2, 4, 5), 0, []int64{1, 2}, len(logBytes(t, 1, 2))},
		{"duplicate ahead", logBytes(t, 1, 2, 4, 4), 0, []int64{1, 2}, len(logBytes(t, 1, 2))},
		{"gap at the head", logBytes(t, 7, 8), 3, nil, 0},
		{"torn tail", append(logBytes(t, 1, 2), third[:len(third)-4]...), 0, []int64{1, 2}, len(logBytes(t, 1, 2))},
		{"torn tail behind stale", append(logBytes(t, 1, 2), third[:3]...), 2, nil, len(logBytes(t, 1, 2))},
		{"garbage only", []byte("garbage"), 0, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.wal")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			run, err := Replay(path, tc.after)
			if err != nil {
				t.Fatal(err)
			}
			if got := seqsOf(run); !reflect.DeepEqual(got, append([]int64{}, tc.want...)) {
				t.Fatalf("run = %v, want %v", got, tc.want)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(tc.wantSize) {
				t.Fatalf("trimmed to %d bytes (err %v), want %d", fi.Size(), err, tc.wantSize)
			}
			// Journal the next batch, as a recovered session would.
			next := tc.after + int64(len(run)) + 1
			l, err := Open(path, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.append(enc(t, next)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := Replay(path, tc.after)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(seqsOf(run), next); !reflect.DeepEqual(seqsOf(again), want) {
				t.Fatalf("after trim + append: run = %v, want %v", seqsOf(again), want)
			}
		})
	}
	if run, err := Replay(filepath.Join(t.TempDir(), "missing.wal"), 0); err != nil || run != nil {
		t.Fatalf("missing file: run=%v err=%v, want an empty log", run, err)
	}
}

// faultyFile fails its next Write (after writing half the bytes, like a
// full disk), its next Sync, or its Close (after really closing).
type faultyFile struct {
	*os.File
	failWrite, failSync, failClose bool
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.failWrite {
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.File.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultyFile) Close() error {
	err := f.File.Close()
	if f.failClose {
		return errInjected
	}
	return err
}

// commit reports whether the log's owner may acknowledge the batch.
func commit(l *Log, b []byte) (acked bool) { return l.Commit(b, true) == nil }

// TestLogRollback drives the commit protocol into a failed append (a
// partial record reaches the file) and a failed sync (a whole record
// does): the caller is not acked, rollback leaves only the acked record,
// Replay accepts the file untrimmed, and the log keeps working.
func TestLogRollback(t *testing.T) {
	for _, fault := range []string{"append", "sync"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.wal")
			l, err := Open(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if !commit(l, enc(t, 1)) {
				t.Fatal("clean commit was not acked")
			}
			ff := &faultyFile{File: l.f.(*os.File), failWrite: fault == "append", failSync: fault == "sync"}
			l.f = ff
			if commit(l, enc(t, 2)) {
				t.Fatalf("commit acked despite a failed %s", fault)
			}
			want := enc(t, 1)
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Fatalf("failed %s left %d bytes on disk, want only seq 1 (%d bytes)", fault, len(got), len(want))
			}
			run, err := Replay(path, 0)
			if err != nil || !reflect.DeepEqual(seqsOf(run), []int64{1}) {
				t.Fatalf("replay after rollback: run=%v err=%v", seqsOf(run), err)
			}
			ff.failWrite, ff.failSync = false, false
			if !commit(l, enc(t, 2)) {
				t.Fatal("commit after the fault cleared was not acked")
			}
			if run, _ := Replay(path, 0); !reflect.DeepEqual(seqsOf(run), []int64{1, 2}) {
				t.Fatalf("run after retry = %v, want [1 2]", seqsOf(run))
			}
		})
	}
}

// TestLogRollbackReadOnlyHandle swaps the log's handle for a read-only
// one, so the append and the rollback's truncate both fail: the caller
// is still not acked and the file is still one Replay accepts.
func TestLogRollbackReadOnlyHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !commit(l, enc(t, 1)) {
		t.Fatal("clean commit was not acked")
	}
	ro, err := os.Open(path) // read-only: writes and truncates fail
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := l.f
	l.f = ro
	if commit(l, enc(t, 2)) {
		t.Fatal("commit through a read-only handle was acked")
	}
	if err := l.rollback(); err == nil {
		t.Fatal("rollback through a read-only handle should report its failed truncate")
	}
	l.f = good
	if run, err := Replay(path, 0); err != nil || !reflect.DeepEqual(seqsOf(run), []int64{1}) {
		t.Fatalf("replay: run=%v err=%v, want only seq 1", seqsOf(run), err)
	}
}

func TestLogResetAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !commit(l, enc(t, 1)) || !commit(l, enc(t, 2)) {
		t.Fatal("commit not acked")
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// The O_APPEND handle lands the next record at the new end of file.
	if !commit(l, enc(t, 3)) {
		t.Fatal("commit after reset not acked")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening appends; it never truncates what is there.
	l, err = Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !commit(l, enc(t, 4)) {
		t.Fatal("commit after reopen not acked")
	}
	if run, err := Replay(path, 2); err != nil || !reflect.DeepEqual(seqsOf(run), []int64{3, 4}) {
		t.Fatalf("run = %v err=%v, want [3 4]", seqsOf(run), err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "no-such-dir", "s.wal"), true); err == nil {
		t.Fatal("open under a missing directory should fail")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	for _, sync := range []bool{false, true} {
		for _, content := range []string{"first", "second, longer"} {
			if err := WriteFileAtomic(path, []byte(content), sync); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != content {
				t.Fatalf("sync=%v: read %q err=%v, want %q", sync, got, err, content)
			}
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind (err=%v)", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "snap"), []byte("x"), true); err == nil {
		t.Fatal("write under a missing directory should fail")
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncing a missing directory should fail")
	}
}

// TestWriteFileAtomicFaults fails each step after the temporary file
// exists — write, fsync, close (injected) and rename (a directory in the
// way) — and requires the error back, the previous contents untouched,
// and no <path>.tmp left for a later directory scan to trip over.
func TestWriteFileAtomicFaults(t *testing.T) {
	open := CreateFile
	defer func() { CreateFile = open }()
	for _, fault := range []string{"write", "sync", "close", "rename"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "s7.snap")
			CreateFile = open
			if err := WriteFileAtomic(path, []byte("previous"), true); err != nil {
				t.Fatal(err)
			}
			CreateFile = func(p string) (File, error) {
				f, err := open(p)
				if err != nil {
					return nil, err
				}
				return &faultyFile{File: f.(*os.File), failWrite: fault == "write", failSync: fault == "sync", failClose: fault == "close"}, nil
			}
			target := path
			if fault == "rename" {
				// Renaming a file over a non-empty directory fails.
				target = filepath.Join(dir, "d")
				if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			if err := WriteFileAtomic(target, []byte("replacement"), true); err == nil {
				t.Fatalf("failed %s was not reported", fault)
			} else if fault != "rename" && !errors.Is(err, errInjected) {
				t.Fatalf("failed %s reported %v, want the injected fault", fault, err)
			}
			if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("failed %s left %s.tmp behind (err=%v)", fault, target, err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
				t.Fatalf("failed %s: previous contents now %q (err=%v)", fault, got, err)
			}
		})
	}
}

// FuzzDecode: Decode never panics, and every offset in ends is a clean
// cut — the prefix up to it decodes, untorn, to the same records.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(logBytes(f, 1, 2, 3))
	for _, b := range damagedLogs(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, ends, tornAt := Decode(b)
		if len(recs) != len(ends) {
			t.Fatalf("%d records, %d ends", len(recs), len(ends))
		}
		clean := int64(len(b))
		if tornAt >= 0 {
			clean = tornAt
		}
		if len(ends) > 0 && ends[len(ends)-1] != clean {
			t.Fatalf("last end %d, clean prefix ends at %d", ends[len(ends)-1], clean)
		}
		if len(ends) == 0 && clean != 0 {
			t.Fatalf("no records but a clean prefix of %d bytes", clean)
		}
		for i, end := range ends {
			again, againEnds, againTorn := Decode(b[:end])
			if againTorn != -1 || !reflect.DeepEqual(again, recs[:i+1]) || !reflect.DeepEqual(againEnds, ends[:i+1]) {
				t.Fatalf("prefix to ends[%d]=%d re-decodes to %d records (tornAt %d), want %d", i, end, len(again), againTorn, i+1)
			}
		}
	})
}
