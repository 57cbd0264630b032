// A session's image is its files under a data directory, byte for byte.
// Restore reads one image per session out of the directory; a backup is
// one image as (name, bytes) pairs, restored by the same reader. The
// layout (imageNames) is this package's alone.
package persist

import (
	"fmt"
	"os"
	"path"
	"slices"
	"strings"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/wal"
)

// File is one file of a session's image: its slash-separated path under
// a data directory, and its bytes.
type File struct {
	Name string
	Data []byte
}

// Image is one session's image, its names checked, ready to restore.
type Image struct {
	ID    string    // the session it holds
	files [3][]byte // as imageNames orders them
}

// imageNames is the layout: a session's snapshot file, then its journal's
// two segments.
func imageNames(id string) [3]string {
	return [3]string{"snap/" + id + snapExt, "wal/" + id + ".wal", "wal/" + id + ".wal.1"}
}

// Files returns the session's image as the data directory holds it — the
// snapshot file, then each non-empty segment — or nil before its first
// checkpoint. It reads under the journal lock with no write in flight: a
// caller also holding the session's own lock reads one state.
func (m *Manager) Files(id string) ([]File, error) {
	if ws := m.lookup(id); ws != nil {
		ws.settle()
		defer ws.mu.Unlock()
	}
	img, err := m.readImage(id)
	if err != nil || img.files[0] == nil {
		return nil, err
	}
	var files []File
	for i, name := range imageNames(id) {
		if len(img.files[i]) > 0 {
			files = append(files, File{Name: name, Data: img.files[i]})
		}
	}
	return files, nil
}

// readImage reads the session's files; a missing one reads as nil.
func (m *Manager) readImage(id string) (*Image, error) {
	if err := validID(id); err != nil { // before any path is built from it
		return nil, err
	}
	img := &Image{ID: id}
	for i, name := range imageNames(id) {
		b, err := os.ReadFile(m.path(name))
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("persist: %w", err)
		}
		img.files[i] = b
	}
	return img, nil
}

// SnapshotFiles renders a live session's snapshot as the image a data
// directory would hold right after checkpointing it: the snapshot file
// alone, every batch folded in. It releases the snapshot's table view.
func SnapshotFiles(snap *core.SessionSnapshot) ([]File, error) {
	b, err := encodeSnapFile(nil, snap)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", snap.ID, err)
	}
	return []File{{Name: imageNames(snap.ID)[0], Data: b}}, nil
}

// ParseImage checks an image given as files — a backup's entries — and
// names its session. Names outside the layout are skipped, so a newer
// writer may add files; a format-1 backup (meta.json + table.bin), a
// per-shard WAL, a second snapshot, an invalid session ID and a segment
// of another session are refused.
func ParseImage(files []File) (*Image, error) {
	img := &Image{}
	var segs []File
	var found bool
	for _, f := range files {
		dir, base := path.Split(path.Clean(f.Name))
		switch {
		case dir == "" && base == "meta.json":
			return nil, fmt.Errorf("persist: this is a backup of format 1 (meta.json + table.bin), which this release does not read: restore it with the release that wrote it on a server started with -data, then start this release on that data directory")
		case dir == "wal/" && legacyShardWAL.MatchString(base):
			return nil, fmt.Errorf("persist: %s is a per-shard WAL of an older layout, which this release does not read: take the backup again from a server running this release", f.Name)
		case dir == "wal/" && (strings.HasSuffix(base, ".wal") || strings.HasSuffix(base, ".wal.1")):
			segs = append(segs, f)
		case dir == "snap/" && strings.HasSuffix(base, snapExt):
			if found {
				return nil, fmt.Errorf("persist: %s is a second snapshot file", f.Name)
			}
			found, img.ID, img.files[0] = true, strings.TrimSuffix(base, snapExt), f.Data
		}
	}
	if !found {
		return nil, fmt.Errorf("persist: no snapshot file under snap/")
	}
	if err := validID(img.ID); err != nil {
		return nil, err
	}
	names := imageNames(img.ID)
	for _, f := range segs {
		i := slices.Index(names[1:], path.Clean(f.Name)) + 1
		if i == 0 || img.files[i] != nil {
			return nil, fmt.Errorf("persist: %s is not a journal segment of session %s", f.Name, img.ID)
		}
		img.files[i] = f.Data
	}
	return img, nil
}

// Restore rebuilds the image's session into sys as Manager.Restore does,
// without trimming anything, and returns it with its sequence head.
// admit, given the snapshot's row count before the replay boots an
// engine, reports whether the restore may go on.
func (img *Image) Restore(sys *core.System, admit func(rows int) bool) (*core.Session, int64, error) {
	se, j, err := img.rebuild(sys, admit, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	return se, j.CheckpointSeq + int64(j.WALRecords), nil
}

// rebuild is the one reader of a session's image, for a data directory
// and a backup alike: decode the snapshot file, restore the session from
// it, and replay the journal's run after the snapshot's cursor. admit,
// when set, vets the restored table before the replay; trim, when set,
// cuts the segment files (replaySegments).
func (img *Image) rebuild(sys *core.System, admit func(rows int) bool, trim func(seg int, size int64) error) (*core.Session, journal, error) {
	snap, err := decodeSnapFile(img.ID, img.files[0])
	if err != nil {
		return nil, journal{}, fmt.Errorf("snapshot %s: %w", imageNames(img.ID)[0], err)
	}
	se, err := sys.RestoreSession(snap)
	if err != nil {
		return nil, journal{}, err
	}
	if admit != nil && !admit(se.Table.NumRows()) {
		return nil, journal{}, fmt.Errorf("session %s refused", img.ID)
	}
	run, j, err := replaySegments([2][]byte{img.files[1], img.files[2]}, snap.Seq, trim)
	if err != nil {
		return nil, journal{}, fmt.Errorf("wal %s: %w", img.ID, err)
	}
	if err := se.ReplayJournal(snap.Seq, wal.Batches(run)); err != nil {
		return nil, journal{}, err
	}
	return se, j, nil
}

// replaySegments reads a session's two journal segments as the one log
// they are — each holds an ascending run, the one whose first record is
// lower comes first — and returns the run right after the snapshot's
// cursor (wal.Run). With trim set, both files are cut to their share of
// the log's clean prefix, as wal.Replay trims one: torn or beyond-the-gap
// bytes left in place would strand, or resurrect under a reused sequence
// number, records journaled after recovery. The later segment with
// records left takes the appends.
func replaySegments(b [2][]byte, afterSeq int64, trim func(seg int, size int64) error) ([]wal.Record, journal, error) {
	var recs [2][]wal.Record
	var ends [2][]int64
	var torn [2]bool
	for i := range b {
		var tornAt int64
		recs[i], ends[i], tornAt = wal.Decode(b[i])
		torn[i] = tornAt >= 0
	}
	order := [2]int{0, 1}
	if len(recs[0]) > 0 && len(recs[1]) > 0 && recs[1][0].Seq < recs[0][0].Seq {
		order = [2]int{1, 0}
	}
	run, clean := wal.Run(append(append([]wal.Record(nil), recs[order[0]]...), recs[order[1]]...), afterSeq)
	j := journal{Status: Status{CheckpointSeq: afterSeq, WALRecords: len(run)}}
	for _, i := range order {
		keep := min(clean, len(recs[i]))
		clean -= keep
		if trim != nil && (torn[i] || keep < len(recs[i])) {
			var size int64
			if keep > 0 {
				size = ends[i][keep-1]
			}
			if err := trim(i, size); err != nil {
				return nil, journal{}, fmt.Errorf("trim: %w", err)
			}
		}
		if keep > 0 {
			j.dirty[i], j.active = true, i
		}
	}
	return run, j, nil
}
