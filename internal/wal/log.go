package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/anmat/anmat/internal/stream"
)

// File is what a Log and WriteFileAtomic need of their *os.File; the
// fault tests substitute a handle whose Write, Sync or Close fails.
type File interface {
	Write(b []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// Log is one open write-ahead log file. It is not safe for concurrent
// use; the owner serializes calls.
//
// The commit protocol per batch is mark, append the encoded record, sync
// when the acknowledgement must survive power loss, and on any failure
// rollback: a partial record left mid-file would strand every later
// acknowledged record behind it at the next recovery, and a fully written
// record whose sync failed would replay a batch the caller was told did
// not happen. Commit is that protocol, and the only way to write a record.
type Log struct {
	f      File
	path   string
	marked int64
}

// Open opens the log at path for appending, creating it when missing.
// With syncDir the parent directory is fsynced too, so a freshly created
// file's directory entry survives power loss — otherwise fsynced appends
// could land in a file no recovery can find.
func Open(path string, syncDir bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if syncDir {
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open %s: %w", path, err)
		}
	}
	return &Log{f: f, path: path}, nil
}

// mark remembers the log's current length as the point rollback returns
// to.
func (l *Log) mark() error {
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal %s: %w", l.path, err)
	}
	l.marked = fi.Size()
	return nil
}

// append writes pre-encoded record bytes (from Encode) at the end of the
// log in a single write call.
func (l *Log) append(b []byte) error {
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("wal %s: append: %w", l.path, err)
	}
	return nil
}

// sync fsyncs the log. After a failed sync the appended data must be
// treated as lost (rollback), never re-synced and acknowledged.
func (l *Log) sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal %s: fsync: %w", l.path, err)
	}
	return nil
}

// rollback truncates the log back to the last mark. It is best-effort:
// if the truncate fails too, Replay's clean-prefix trim is the backstop.
func (l *Log) rollback() error {
	return l.f.Truncate(l.marked)
}

// Commit runs the whole protocol for one record: mark, append, sync when
// sync is set, and rollback (best-effort) if either failed. nil means
// the caller may acknowledge the batch.
func (l *Log) Commit(b []byte, sync bool) error {
	if err := l.mark(); err != nil {
		return err
	}
	err := l.append(b)
	if err == nil && sync {
		err = l.sync()
	}
	if err != nil {
		_ = l.rollback() // Replay trims what a failed truncate leaves
	}
	return err
}

// Reset empties the log (after its records were folded into a snapshot).
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal %s: reset: %w", l.path, err)
	}
	return nil
}

// Close releases the file handle.
func (l *Log) Close() error { return l.f.Close() }

// Run extracts the replayable records from a decoded log: the contiguous
// run starting right after the checkpoint cursor afterSeq. Records at or
// below the cursor are a crash artifact of checkpointing (snapshot
// durable, truncate lost) and are skipped, as is a repeat of a sequence
// number already taken. A record further ahead than the next expected
// sequence number means the records from it on can no longer be
// interpreted, so the run ends there like at a torn tail. clean is the
// number of leading records up to that point — the prefix worth keeping.
func Run(recs []Record, afterSeq int64) (run []Record, clean int) {
	next := afterSeq + 1
	for i, rec := range recs {
		switch {
		case rec.Seq < next:
			// Stale or repeated: harmless, stays in the clean prefix.
		case rec.Seq == next:
			run = append(run, rec)
			next++
		default:
			return run, i
		}
	}
	return run, len(recs)
}

// Batches strips the sequence numbers off a run, giving the form a
// session replays.
func Batches(recs []Record) []stream.Batch {
	out := make([]stream.Batch, len(recs))
	for i, rec := range recs {
		out[i] = rec.Batch
	}
	return out
}

// Replay reads the log at path and returns the run of records after the
// checkpoint cursor (see Run). A missing file is an empty log. The file
// is then truncated back to its clean prefix: leaving torn or
// beyond-the-gap bytes in place would strand (or worse, resurrect under
// a reused sequence number) records journaled after recovery. Only real
// I/O failures produce an error.
func Replay(path string, afterSeq int64) ([]Record, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	recs, ends, tornAt := Decode(b)
	run, clean := Run(recs, afterSeq)
	if tornAt >= 0 || clean < len(recs) {
		var keep int64
		if clean > 0 {
			keep = ends[clean-1]
		}
		if err := os.Truncate(path, keep); err != nil {
			return nil, fmt.Errorf("wal: trim: %w", err)
		}
	}
	return run, nil
}

// SyncDir fsyncs a directory so entry creations and renames inside it
// are durable across power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// CreateFile opens WriteFileAtomic's temporary file. It is the fault
// seam of every snapshot write: tests here and in the packages above
// (persist's background checkpoint write, the server's backup) substitute
// a handle whose Write, Sync or Close fails or blocks. Nothing else may
// assign it.
var CreateFile = func(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// WriteFileAtomic replaces path with data by writing path+".tmp" and
// renaming it over path, so a crash leaves either the old or the new
// contents. With sync the data is fsynced before the rename publishes it
// and the directory after, making the replacement durable. A failed
// write, fsync, close or rename removes the temporary file again.
func WriteFileAtomic(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := CreateFile(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the caller gets the first failure
		return err
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}
