package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/table"
)

// followSession builds a detected session over a phone_state CSV at path
// (extra: more detect flags) and returns it plus the file's current size
// (the tail offset).
func followSession(t *testing.T, path string, extra ...string) (*core.Session, int64) {
	t.Helper()
	pf := newDetectFlags()
	if err := pf.fs.Parse(append([]string{"-in", path, "-coverage", "0.05", "-violations", "0.2"}, extra...)); err != nil {
		t.Fatal(err)
	}
	tbl, err := table.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	se := pf.buildSession(tbl)
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) == 0 {
		t.Fatal("no rules mined")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return se, fi.Size()
}

func writePhoneCSV(t *testing.T, dir string, rows int, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, "phones.csv")
	ds := datagen.PhoneState(rows, 0.01, seed)
	if err := ds.Table.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFollowFileTruncated pins the behavior when the tailed file shrinks
// underneath the tailer (an in-place rewrite): follow must stop with a
// diagnostic rather than silently misparsing from a stale offset.
func TestFollowFileTruncated(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 61)
	se, offset := followSession(t, path)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- followFile(ctx, lockedWriter{&mu, &buf}, se, path, offset, 5*time.Millisecond)
	}()
	if err := os.Truncate(path, offset/2); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("follow on truncated file = %v, want a 'file shrank' error", err)
	}
}

// TestFollowFileRotated pins the rotation case: the file is replaced by a
// fresh, smaller one (logrotate-style). The tailer detects the size drop
// and refuses to continue against an incompatible byte offset.
func TestFollowFileRotated(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 62)
	se, offset := followSession(t, path)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- followFile(ctx, lockedWriter{&mu, &buf}, se, path, offset, 5*time.Millisecond)
	}()
	// Rotate: move the current file away and start a fresh one in place.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("phone,state\n4155550000,CA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("follow on rotated file = %v, want a 'file shrank' error", err)
	}
}

// slowWriter simulates a terminal that drains slowly: every write parks
// for a while before landing in the buffer. It lets a new delta batch
// arrive while the previous batch's diff is still printing.
type slowWriter struct {
	mu    *sync.Mutex
	buf   *bytes.Buffer
	delay time.Duration
}

func (sw slowWriter) Write(p []byte) (int, error) {
	time.Sleep(sw.delay)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.buf.Write(p)
}

// TestFollowBatchDuringSlowPrint appends a second batch while the first
// batch's diff is still being printed through a slow writer. The tailer
// is single-threaded by design, so the batches must be applied and
// printed strictly in order, with no interleaved or lost output.
func TestFollowBatchDuringSlowPrint(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 63)
	se, offset := followSession(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var buf bytes.Buffer
	sw := slowWriter{mu: &mu, buf: &buf, delay: 20 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		done <- followFile(ctx, sw, se, path, offset, 5*time.Millisecond)
	}()

	waitFor := func(marker string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			mu.Lock()
			out := buf.String()
			mu.Unlock()
			if strings.Contains(out, marker) {
				return
			}
			select {
			case err := <-done:
				t.Fatalf("follow exited early waiting for %q: %v\noutput:\n%s", marker, err, out)
			case <-deadline:
				t.Fatalf("%q never printed; output:\n%s", marker, out)
			case <-time.After(time.Millisecond):
			}
		}
	}

	// First batch: a dirty row produces a diff that prints slowly.
	appendFile(t, path, "9990001111,ZZ\n")
	// The moment the first diff header lands, its violation lines are
	// still draining through the slow writer — append the second batch
	// now, mid-print, so it is guaranteed to arrive while the previous
	// batch is being rendered.
	waitFor("seq 1:")
	appendFile(t, path, "9990002222,QQ\n")
	waitFor("seq 2:")
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	// Both batches printed, in order, each line intact.
	i1 := strings.Index(out, "seq 1:")
	i2 := strings.Index(out, "seq 2:")
	if i1 < 0 || i2 < 0 || i2 < i1 {
		t.Fatalf("diff headers missing or out of order (seq1 at %d, seq2 at %d):\n%s", i1, i2, out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !validFollowLine(line) {
			t.Errorf("mangled output line %q", line)
		}
	}
	if se.Table.NumRows() != 302 {
		t.Errorf("rows = %d, want 302", se.Table.NumRows())
	}
}

// validFollowLine recognizes the line shapes followFile emits.
func validFollowLine(line string) bool {
	for _, prefix := range []string{"following ", "follow stopped", "seq ", "  + ", "  - ", "warning:"} {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// TestCmdDetectDataResume is the CLI durability round trip: detect -data
// checkpoints the session; a second run restores it (no re-mining) and a
// follow run resumes ingestion at the right file offset.
func TestCmdDetectDataResume(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 64)
	dataDir := filepath.Join(dir, "state")

	out, err := capture(t, []string{"detect", "-in", path, "-coverage", "0.05", "-violations", "0.2", "-data", dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PFD(s)") || strings.Contains(out, "restored session") {
		t.Fatalf("first run output:\n%s", out)
	}

	// Second run restores instead of re-running the pipeline.
	out, err = capture(t, []string{"detect", "-in", path, "-data", dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "restored session") || !strings.Contains(out, "300 row(s)") {
		t.Fatalf("second run should restore:\n%s", out)
	}

	// Rows appended between runs are picked up by a resumed follow: the
	// restored table has 300 rows, the file now has 301, so the tail must
	// ingest exactly the one new record.
	appendFile(t, path, "9990003333,XX\n")
	restoredTbl, err := table.ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoredTbl.DeleteRows(300); err != nil { // the un-ingested tail record
		t.Fatal(err)
	}
	resOff, err := resumeOffset(path, restoredTbl)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if resOff >= fi.Size() {
		t.Fatalf("resume offset %d should fall before the appended record (size %d)", resOff, fi.Size())
	}
	if resOff <= fi.Size()-int64(len("9990003333,XX\n"))-1 {
		t.Fatalf("resume offset %d re-reads already-ingested rows (size %d)", resOff, fi.Size())
	}

	// A file whose leading records diverge from the restored rows (an
	// in-place rewrite) is reported, not silently resumed.
	restoredTbl.SetCell(0, 1, "XX")
	if _, err := resumeOffset(path, restoredTbl); err == nil {
		t.Error("resumeOffset should fail when the file diverges from the restored table")
	}

	// A file with fewer records than the restored table is reported.
	big := table.MustNew("phones", []string{"phone", "state"})
	for i := 0; i < 5000; i++ {
		big.MustAppend("0000000000", "ZZ")
	}
	if _, err := resumeOffset(path, big); err == nil {
		t.Error("resumeOffset should fail when the file is shorter than the restored table")
	}
}

// TestResumeOffsetSkipsMalformed pins the alignment between resume and
// live tailing: a malformed record the tailer dropped (with a warning)
// must be skipped identically on resume, or a session that ever saw one
// could never be restored.
func TestResumeOffsetSkipsMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.csv")
	// r1 ingested, malformed dropped, r2 ingested; r3 not yet ingested.
	content := "phone,state\n4155550001,CA\nx\"bad,ZZ\n4155550002,CA\n4155550003,CA\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ingested := table.MustFromRows("feed", []string{"phone", "state"}, [][]string{
		{"4155550001", "CA"},
		{"4155550002", "CA"},
	})
	off, err := resumeOffset(path, ingested)
	if err != nil {
		t.Fatalf("resume over a dropped malformed record: %v", err)
	}
	want := int64(len(content) - len("4155550003,CA\n"))
	if off != want {
		t.Errorf("resume offset = %d, want %d (just before the un-ingested record)", off, want)
	}
}

// TestResumeOffsetNoTrailingNewline pins resume on a file whose final
// record lacks a terminating newline: the initial load ingested that row
// (table.ReadCSV reads to EOF), so resume must accept it rather than
// claim the file shrank.
func TestResumeOffsetNoTrailingNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.csv")
	content := "phone,state\n4155550001,CA\n4155550002,CA"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ingested := table.MustFromRows("feed", []string{"phone", "state"}, [][]string{
		{"4155550001", "CA"},
		{"4155550002", "CA"},
	})
	off, err := resumeOffset(path, ingested)
	if err != nil {
		t.Fatalf("resume over unterminated final record: %v", err)
	}
	if off != int64(len(content)) {
		t.Errorf("offset = %d, want file end %d", off, len(content))
	}
	// A diverging unterminated final record is still rejected.
	ingested.SetCell(1, 0, "0000000000")
	if _, err := resumeOffset(path, ingested); err == nil {
		t.Error("diverging final record should be rejected")
	}
}

// TestCmdDetectDataStaleFile pins the one-shot staleness check: when the
// input file changed after its checkpoint, detect -data must re-run the
// pipeline on the current contents instead of serving stale results.
func TestCmdDetectDataStaleFile(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 66)
	dataDir := filepath.Join(dir, "state")
	if _, err := capture(t, []string{"detect", "-in", path, "-coverage", "0.05", "-violations", "0.2", "-data", dataDir}); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "9990005555,WW\n")
	out, err := capture(t, []string{"detect", "-in", path, "-coverage", "0.05", "-violations", "0.2", "-data", dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "restored session") {
		t.Fatalf("stale checkpoint served for a changed file:\n%s", out)
	}
	if !strings.Contains(out, "changed since its checkpoint") {
		t.Errorf("missing staleness notice:\n%s", out)
	}
	// The re-run checkpointed the current contents; a third run restores.
	out, err = capture(t, []string{"detect", "-in", path, "-data", dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "restored session") || !strings.Contains(out, "301 row(s)") {
		t.Errorf("re-run was not checkpointed:\n%s", out)
	}
}

// TestCmdDetectDataTwoTables pins the ID-collision regression: running
// detect -data against a second CSV must not reuse the first session's
// ID and overwrite its persisted state.
func TestCmdDetectDataTwoTables(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "state")
	aPath := writePhoneCSV(t, dir, 300, 71)
	bPath := filepath.Join(dir, "zips.csv")
	if err := datagen.ZipCity(400, 0.01, 72).Table.WriteCSVFile(bPath); err != nil {
		t.Fatal(err)
	}

	common := []string{"-coverage", "0.05", "-violations", "0.2", "-data", dataDir}
	if _, err := capture(t, append([]string{"detect", "-in", aPath}, common...)); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, append([]string{"detect", "-in", bPath}, common...)); err != nil {
		t.Fatal(err)
	}

	// Both sessions must survive, independently restorable.
	for _, in := range []string{aPath, bPath} {
		out, err := capture(t, []string{"detect", "-in", in, "-data", dataDir})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "restored session") {
			t.Errorf("%s not restored after second table was persisted:\n%s", in, out)
		}
	}
}

func TestCmdDetectDataResumeFollow(t *testing.T) {
	dir := t.TempDir()
	path := writePhoneCSV(t, dir, 300, 65)
	dataDir := filepath.Join(dir, "state")

	if _, err := capture(t, []string{"detect", "-in", path, "-coverage", "0.05", "-violations", "0.2", "-data", dataDir}); err != nil {
		t.Fatal(err)
	}
	// One record lands while no process is tailing.
	appendFile(t, path, "9990004444,YY\n")

	// Resume in follow mode: restored session + resumed offset. Run the
	// command for real with a context we can cancel via a deadline; the
	// follow loop exits cleanly on ctx cancellation, so drive followFile
	// directly after restoring through the exported flow.
	pf := newDetectFlags()
	if err := pf.fs.Parse([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
	pm, err := persist.Open(dataDir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	se, offset, restored, err := restoreDetectSession(pm, pf.system(), path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("session not restored")
	}
	if se.Table.NumRows() != 300 {
		t.Fatalf("restored rows = %d", se.Table.NumRows())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- followFile(ctx, lockedWriter{&mu, &buf}, se, path, offset, 5*time.Millisecond)
	}()
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		out := buf.String()
		mu.Unlock()
		if strings.Contains(out, "301 row(s)") {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("follow exited early: %v\noutput:\n%s", err, out)
		case <-deadline:
			t.Fatalf("appended record not ingested after resume; output:\n%s", out)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if se.Table.NumRows() != 301 {
		t.Errorf("rows after resumed follow = %d, want 301", se.Table.NumRows())
	}
	if got := fmt.Sprint(se.Table.Row(300)); !strings.Contains(got, "9990004444") {
		t.Errorf("resumed ingestion picked up the wrong record: %s", got)
	}
}

// TestDetectFollowShardsByteIdentical: for the same appended rows,
// `detect -follow -shards 2` prints byte-identical diffs to K=1; the
// subcommands that build no engine do not take the engine flags.
func TestDetectFollowShardsByteIdentical(t *testing.T) {
	batches := []string{"9990001111,ZZ\n", "4155550000,CA\n8505550009,GA\n", "9990002222,QQ\n9990001111,Z"}
	follow := func(shards int) string {
		path := writePhoneCSV(t, t.TempDir(), 300, 66)
		se, offset := followSession(t, path, "-shards", fmt.Sprint(shards))
		if se.Shards() != shards {
			t.Fatalf("-shards %d: session runs %d shard(s)", shards, se.Shards())
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		var buf bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- followFile(ctx, lockedWriter{&mu, &buf}, se, path, offset, 5*time.Millisecond) }()
		for i, b := range batches {
			appendFile(t, path, b)
			marker := fmt.Sprintf("seq %d:", i+1)
			deadline := time.After(10 * time.Second)
			for {
				mu.Lock()
				out := buf.String()
				mu.Unlock()
				if strings.Contains(out, marker) {
					break
				}
				select {
				case err := <-done:
					t.Fatalf("-shards %d: follow exited early: %v\n%s", shards, err, out)
				case <-deadline:
					t.Fatalf("-shards %d: %q never printed:\n%s", shards, marker, out)
				case <-time.After(time.Millisecond):
				}
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(buf.String(), path, "<in>")
	}
	one, two := follow(1), follow(2)
	if one != two {
		t.Fatalf("diffs differ between K=1 and K=2:\n--- K=1\n%s\n--- K=2\n%s", one, two)
	}
	if !strings.Contains(one, "seq 3:") || !strings.Contains(one, "  + ") {
		t.Fatalf("follow output lacks the expected diffs:\n%s", one)
	}

	in := writePhoneCSV(t, t.TempDir(), 50, 66)
	for _, sub := range []string{"profile", "discover", "repair", "report"} {
		if _, err := capture(t, []string{sub, "-in", in, "-shards", "2"}); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("%s -shards 2: err = %v, want an undefined-flag error", sub, err)
		}
	}
}
