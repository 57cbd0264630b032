package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs/obstest"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/wal"
)

// seam drives wal.CreateFile, the temporary file of every snapshot write:
// it counts the calls, fails a chosen one, holds a write open, or kills
// the writing goroutine between the temporary file's close and its
// rename. Tests using it must not run in parallel.
type seam struct {
	mu                      sync.Mutex
	creates, writes, fsyncs int
	fault                   string        // "", "write", "sync", "close" or "rename"
	hold                    chan struct{} // while non-nil, a Write first waits for it to close
	held                    chan struct{} // closed when a Write starts waiting
	afterClose              func()        // runs on the writing goroutine once the temporary is closed
}

type seamFile struct {
	*os.File
	s *seam
}

var errInjected = errors.New("injected fault")

func installSeam(t *testing.T) *seam {
	s := &seam{}
	open := wal.CreateFile
	t.Cleanup(func() { wal.CreateFile = open })
	wal.CreateFile = func(path string) (wal.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.creates++
		s.mu.Unlock()
		return &seamFile{File: f.(*os.File), s: s}, nil
	}
	return s
}

// set changes the seam's behaviour under its lock.
func (s *seam) set(f func(s *seam)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s)
}

// holdWrites makes the next Write wait; the returned channels tell when
// it is waiting and let it go.
func (s *seam) holdWrites() (held <-chan struct{}, release func()) {
	hold, h := make(chan struct{}), make(chan struct{})
	s.set(func(s *seam) { s.hold, s.held = hold, h })
	return h, func() { close(hold) }
}

func (f *seamFile) Write(b []byte) (int, error) {
	f.s.mu.Lock()
	f.s.writes++
	fault, hold, held := f.s.fault, f.s.hold, f.s.held
	f.s.hold, f.s.held = nil, nil
	f.s.mu.Unlock()
	if hold != nil {
		close(held)
		<-hold
	}
	if fault == "write" {
		n, _ := f.File.Write(b[:len(b)/2]) // like a full disk
		return n, errInjected
	}
	return f.File.Write(b)
}

func (f *seamFile) Sync() error {
	f.s.mu.Lock()
	f.s.fsyncs++
	fault := f.s.fault
	f.s.mu.Unlock()
	if fault == "sync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f *seamFile) Close() error {
	err := f.File.Close()
	f.s.mu.Lock()
	fault, after := f.s.fault, f.s.afterClose
	f.s.mu.Unlock()
	switch fault {
	case "close":
		return errInjected
	case "rename":
		os.Remove(f.Name()) // nothing left to rename
	}
	if after != nil {
		after()
	}
	return err
}

// goroutinesBackTo fails the test unless the goroutine count returns to
// base: every checkpoint writer must have exited once Close has returned.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // a goroutine past its last statement may still be counted
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the test: leaked\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// cutsTimed is how many checkpoint cuts the process has made so far.
func cutsTimed(t *testing.T) float64 {
	return obstest.Value(t, "anmat_persist_checkpoint_cut_duration_seconds_count", nil)
}

// inFlight returns the session's checkpoint write in flight, if any.
func inFlight(m *Manager, id string) *checkpointWrite {
	ws := m.lookup(id)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.write
}

// journalSeqs decodes both segment files and returns their records'
// sequence numbers, the first segment's first.
func journalSeqs(t *testing.T, m *Manager, id string) (seqs [2][]int64) {
	t.Helper()
	for i := range seqs {
		recs, _, tornAt, err := readWAL(m.segPath(id, i))
		if err != nil || tornAt >= 0 {
			t.Fatalf("segment %d: tornAt=%d err=%v", i, tornAt, err)
		}
		for _, r := range recs {
			seqs[i] = append(seqs[i], r.Seq)
		}
	}
	return seqs
}

// The points inside a background checkpoint write at which
// TestCheckpointCrashMidRotation kills the process: the three the writer
// announces, and the one inside wal.WriteFileAtomic the seam reaches.
const (
	crashAfterTmp crashPoint = "tmp" // temporary written and closed, not renamed
	// heldThenLanded is not a kill: the writer waits right after the cut
	// while batches are acknowledged behind it, then runs to the end, and
	// the process dies between batches.
	heldThenLanded crashPoint = "held-then-landed"
)

var midRotationPoints = []crashPoint{crashAfterCut, crashAfterTmp, crashAfterRename, crashAfterTruncate, heldThenLanded}

// TestCheckpointCrashMidRotation kills the process inside the rotation a
// compaction checkpoint makes: after the cut and before the temporary
// file exists, after the temporary is written and before its rename,
// after the rename and before the old segment is emptied, and after that
// — each time with further batches acknowledged, into the other segment,
// while the writer stands at the point. The background writer dies at the
// point for good (it must never run on into the files the "restarted"
// manager reads); in one more arm it is let go instead and lands with
// those batches behind it. Recovery must then lose no acknowledged batch and
// resurrect none, be byte-identical to a full detection, and resolve
// every cursor issued before the crash; the recovered session goes
// through another compaction and a second, clean crash to show that the
// journal state recovery derived was the true one.
func TestCheckpointCrashMidRotation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, point := range midRotationPoints {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("k%d/%s/seed%d", shards, point, seed), func(t *testing.T) {
					crashMidRotationOnce(t, point, seed, shards)
				})
			}
		}
	}
}

func crashMidRotationOnce(t *testing.T, point crashPoint, seed int64, shards int) {
	const compactEvery = 4
	base := runtime.NumGoroutine()
	r := startRecoveryRun(t, crashStyle("mid-rotation-"+point), seed, shards, compactEvery)
	m, id := r.m, r.se.ID

	// The writer that finds the trap armed stops at the point, says so,
	// and dies there when told to.
	var once sync.Once
	armed := make(chan struct{})
	reached, kill := make(chan struct{}), make(chan struct{})
	trap := func() (sprung bool) {
		select {
		case <-armed:
			once.Do(func() { sprung = true })
		default:
		}
		if sprung {
			close(reached)
			<-kill
		}
		return sprung
	}
	at := point
	if point == heldThenLanded {
		at = crashAfterCut
	}
	m.crash = func(p crashPoint) bool { return p == at && trap() && point != heldThenLanded }
	if point == crashAfterTmp {
		installSeam(t).afterClose = func() {
			if trap() {
				runtime.Goexit() // SIGKILL, as far as this goroutine can tell
			}
		}
	}

	// Some batches first, so that the write caught is not always the
	// session's first compaction nor always out of the first segment.
	for n := r.rng.Intn(2 * compactEvery); n > 0; {
		if r.step() {
			n--
		}
	}
	close(armed)
	r.unsettled = true
	for cuts, tries := cutsTimed(t), 0; cutsTimed(t) == cuts; tries++ {
		if tries == 20*compactEvery {
			t.Fatal("no compaction came due")
		}
		r.step()
	}
	cutSeq := r.finalSeq // the batch that brought it due is the last one in the snapshot
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatalf("the compaction's writer never reached %q", point)
	}
	// Further acknowledged batches while the writer stands at the point —
	// fewer than would bring the next compaction due, which would wait.
	for n := 1 + r.rng.Intn(compactEvery-1); n > 0; {
		if r.step() {
			n--
		}
	}

	// What is on disk at the moment of the kill is what the point says.
	onDisk, ok, err := readSnapFile(m, id)
	if err != nil || !ok {
		t.Fatalf("snapshot at the kill: ok=%v err=%v", ok, err)
	}
	_, tmpErr := os.Stat(m.snapPath(id) + ".tmp")
	seqs := journalSeqs(t, m, id)
	old, cur := seqs[1-activeOf(m, id)], seqs[activeOf(m, id)]
	switch point {
	case crashAfterCut, heldThenLanded:
		if onDisk.Seq >= cutSeq || !os.IsNotExist(tmpErr) {
			t.Fatalf("after the cut: snapshot at seq %d (cut %d), temporary: %v", onDisk.Seq, cutSeq, tmpErr)
		}
	case crashAfterTmp:
		if onDisk.Seq >= cutSeq || tmpErr != nil {
			t.Fatalf("temporary written: snapshot at seq %d (cut %d), temporary: %v", onDisk.Seq, cutSeq, tmpErr)
		}
	case crashAfterRename:
		if onDisk.Seq != cutSeq || len(old) == 0 {
			t.Fatalf("renamed: snapshot at seq %d (cut %d), old segment holds %v", onDisk.Seq, cutSeq, old)
		}
	case crashAfterTruncate:
		if onDisk.Seq != cutSeq || len(old) != 0 {
			t.Fatalf("truncated: snapshot at seq %d (cut %d), old segment holds %v", onDisk.Seq, cutSeq, old)
		}
	}
	if len(cur) == 0 || cur[0] != cutSeq+1 || cur[len(cur)-1] != r.finalSeq || len(old) > 0 && old[len(old)-1] != cutSeq {
		t.Fatalf("segments at the kill: old %v, active %v; last acknowledged batch %d, cut at %d", old, cur, r.finalSeq, cutSeq)
	}

	close(kill)
	if point == heldThenLanded {
		st, _ := m.Status(id) // waits for the landing
		if seqs := journalSeqs(t, m, id); st.CheckpointSeq != cutSeq || int64(st.WALRecords) != r.finalSeq-cutSeq ||
			len(seqs[1-activeOf(m, id)]) != 0 || !reflect.DeepEqual(seqs[activeOf(m, id)], cur) {
			t.Fatalf("landed with batches behind it: status %+v, segments %v; cut at %d, last batch %d", st, seqs, cutSeq, r.finalSeq)
		}
	}
	m.Close() // returns once the writer is gone
	goroutinesBackTo(t, base)

	back, m2 := r.recoverAndCheck(r.finalSeq)
	if st, _ := m2.Status(id); int64(st.WALRecords) != r.finalSeq-st.CheckpointSeq {
		t.Fatalf("status after recovery %+v at seq %d", st, r.finalSeq)
	}
	// Life goes on: another compaction (at least), a clean crash, and the
	// same three properties over everything acknowledged on both sides of
	// the first crash.
	r.m, r.se, r.unsettled = m2, back, false
	for n := compactEvery + 1 + r.rng.Intn(compactEvery); n > 0; {
		if r.step() {
			n--
		}
	}
	m2.Close()
	r.recoverAndCheck(r.finalSeq)
}

// readSnapFile decodes the session's snapshot file without waiting for
// anything, as a process starting up would.
func readSnapFile(m *Manager, id string) (*core.SessionSnapshot, bool, error) {
	b, err := os.ReadFile(m.snapPath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	snap, err := decodeSnapFile(id, b)
	return snap, err == nil, err
}

func activeOf(m *Manager, id string) int {
	ws := m.lookup(id)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.active
}

// copyDir is a crash image: the data directory as it is now.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := filepath.Join(t.TempDir(), "image")
	if out, err := exec.Command("cp", "-r", from, to).CombinedOutput(); err != nil {
		t.Fatalf("cp: %v: %s", err, out)
	}
	return to
}

// recoverImage restores the one session of a data directory and returns
// its violations and table, rendered.
func recoverImage(t *testing.T, dir string) (vio, tbl string, st Status) {
	t.Helper()
	back, m := restoreOne(t, dir)
	defer m.Close()
	st, _ = m.Status(back.ID)
	return mustJSON(t, back.Violations), string(back.Table.EncodeBinaryBytes()), st
}

// TestCheckpointWriteFaults fails the background write at each step —
// write, fsync and close of the temporary file, and the rename — while
// the session keeps acknowledging batches. No acknowledgement may fail,
// no segment may be emptied, the failure counter moves, the bookkeeping
// keeps counting from the old checkpoint, a crash image taken at any
// moment recovers to exactly the acknowledged state, and once the fault
// is gone the next batch's retry lands.
func TestCheckpointWriteFaults(t *testing.T) {
	for _, fault := range []string{"write", "sync", "close", "rename"} {
		t.Run(fault, func(t *testing.T) {
			const compactEvery = 4
			base := runtime.NumGoroutine()
			s := installSeam(t)
			dir := t.TempDir()
			m, err := Open(dir, Options{CompactEvery: compactEvery, Fsync: true})
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
			if _, err := se.Stream(); err != nil { // the baseline, written before the fault
				t.Fatal(err)
			}
			s.set(func(s *seam) { s.fault = fault })
			failures0, landed0 := obstest.Value(t, "anmat_persist_checkpoint_failures_total", nil), obstest.Value(t, "anmat_persist_checkpoints_total", nil)

			ack := func(n int) {
				t.Helper()
				if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"9000" + fmt.Sprint(n%3), "LA", "8512" + fmt.Sprint(n%4), "CA"})}); err != nil {
					t.Fatalf("batch %d not acknowledged: %v", n, err)
				}
			}
			const batches = 3 * compactEvery
			for n := 1; n <= batches; n++ {
				ack(n)
				// Status waits for the write batch n may have started.
				if st, _ := m.Status(se.ID); st.CheckpointSeq != 0 || st.WALRecords != n {
					t.Fatalf("after batch %d with writes failing: status %+v, want %d records on the seq-0 snapshot", n, st, n)
				}
				if got, want := obstest.Value(t, "anmat_persist_checkpoint_failures_total", nil)-failures0, float64(max(0, n-compactEvery+1)); got != want {
					t.Fatalf("after batch %d: %v failed writes counted, want %v (one try per batch once compaction is due)", n, got, want)
				}
				seqs := journalSeqs(t, m, se.ID)
				if len(seqs[0])+len(seqs[1]) != n {
					t.Fatalf("after batch %d: segments hold %v: a failed write emptied one", n, seqs)
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "snap", "*.tmp")); len(left) > 0 {
					t.Fatalf("after batch %d: failed write left %v", n, left)
				}
				if n%compactEvery == 1 || n == batches { // a crash right now
					vio, tbl, st := recoverImage(t, copyDir(t, dir))
					if vio != mustJSON(t, se.Violations) || tbl != string(se.Table.EncodeBinaryBytes()) || st.WALRecords != n {
						t.Fatalf("crash image after batch %d recovers to another state (status %+v)", n, st)
					}
				}
			}
			if landed := obstest.Value(t, "anmat_persist_checkpoints_total", nil) - landed0; landed != 0 {
				t.Fatalf("%v checkpoints counted as landed while every write failed", landed)
			}
			// The cut before the first failed write switched segments; no
			// later one may, with the first segment still needed.
			if seqs := journalSeqs(t, m, se.ID); len(seqs[0]) != compactEvery || len(seqs[1]) != batches-compactEvery {
				t.Fatalf("segments hold %v, want the first %d batches in one and the rest in the other", seqs, compactEvery)
			}

			s.set(func(s *seam) { s.fault = "" })
			ack(batches + 1)
			if st, _ := m.Status(se.ID); st.CheckpointSeq != batches+1 || st.WALRecords != 0 {
				t.Fatalf("after the fault is gone the next batch's retry did not land: status %+v", st)
			}
			if seqs := journalSeqs(t, m, se.ID); len(seqs[0])+len(seqs[1]) != 0 {
				t.Fatalf("landed with no batch behind it, yet segments hold %v", seqs)
			}
			if landed := obstest.Value(t, "anmat_persist_checkpoints_total", nil) - landed0; landed != 1 {
				t.Fatalf("%v checkpoints counted as landed, want 1", landed)
			}
			ack(batches + 2)
			m.Close()
			goroutinesBackTo(t, base)
			if vio, tbl, st := recoverImage(t, dir); vio != mustJSON(t, se.Violations) || tbl != string(se.Table.EncodeBinaryBytes()) || st.WALRecords != 1 {
				t.Fatalf("final recovery diverged (status %+v)", st)
			}
		})
	}
}

// dirStateWithDirs is dirState plus the directories' own modification
// times, which move when an entry is created, renamed or removed.
func dirStateWithDirs(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := dirState(t, dir)
	for _, d := range []string{"snap", "wal"} {
		fi, err := os.Stat(filepath.Join(dir, d))
		if err != nil {
			t.Fatal(err)
		}
		out[d+"/"] = fmt.Sprint(fi.ModTime().UnixNano())
	}
	return out
}

// TestCheckpointCutDoesNoFileWork: with the background writer held back
// before its first step, everything a compacting batch does to the data
// directory is what its request path does — and that is one journal
// record appended and synced, as for any batch. No temporary file is
// opened, so no table byte is written and no snapshot fsynced, no file
// appears, disappears or changes size, and neither directory is touched.
// The snapshot carries the table as a view, not as bytes.
func TestCheckpointCutDoesNoFileWork(t *testing.T) {
	const compactEvery = 4
	s := installSeam(t)
	dir := t.TempDir()
	m, err := Open(dir, Options{CompactEvery: compactEvery, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
	se := sys.NewSession("proj", testTable(), core.DefaultParams())
	se.UseRules(testRules())
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	batch := stream.Batch{stream.AppendRows([]string{"90001", "LA", "85123", "FL"})}
	for n := 1; n < compactEvery; n++ {
		if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	m.crash = func(p crashPoint) bool {
		if p == crashAfterCut {
			<-release
		}
		return false
	}
	before := dirStateWithDirs(t, dir)
	s.set(func(s *seam) { s.creates, s.writes, s.fsyncs = 0, 0, 0 })
	fsyncs0, cuts0 := obstest.Value(t, "anmat_wal_group_commit_fsyncs_total", nil), cutsTimed(t)
	if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil { // the compacting batch
		t.Fatal(err)
	}
	w := inFlight(m, se.ID)
	if w == nil || !w.behind || w.snap.Table == nil || w.snap.TableData != nil {
		t.Fatalf("the compacting batch left no background write over a table view: %+v", w)
	}
	if cuts := cutsTimed(t) - cuts0; cuts != 1 {
		t.Fatalf("%v cuts timed, want 1", cuts)
	}
	s.set(func(s *seam) {
		if s.creates+s.writes+s.fsyncs != 0 {
			t.Errorf("the request path opened %d temporary files, wrote %d times, fsynced %d times", s.creates, s.writes, s.fsyncs)
		}
	})
	if n := obstest.Value(t, "anmat_wal_group_commit_fsyncs_total", nil) - fsyncs0; n != 1 {
		t.Errorf("%v journal fsyncs for one batch", n)
	}
	after := dirStateWithDirs(t, dir)
	journal := m.segPath(se.ID, 0)
	for path, state := range after {
		if changed := state != before[path]; changed != (path == journal) {
			t.Errorf("%s: changed=%v across the compacting batch", path, changed)
		}
	}
	if len(after) != len(before) {
		t.Errorf("the compacting batch changed the file set: %d entries, were %d", len(after), len(before))
	}
	close(release)
	if st, _ := m.Status(se.ID); st.CheckpointSeq != compactEvery || st.WALRecords != 0 {
		t.Fatalf("released, the write did not land: %+v", st)
	}
}

// TestCheckpointWaiters: whatever reads or removes a session's files
// waits for the checkpoint write in flight — Close, Drop, the backup
// accessors, Status, and the next cut (which waits, never skips, so the
// cadence holds) — and Close leaves no goroutine behind.
func TestCheckpointWaiters(t *testing.T) {
	const compactEvery = 4
	batch := stream.Batch{stream.AppendRows([]string{"90001", "LA", "85123", "FL"})}
	// start brings a session to a compaction whose write is held open
	// inside the temporary file's Write.
	start := func(t *testing.T) (m *Manager, se *core.Session, dir string, release func()) {
		s := installSeam(t)
		dir = t.TempDir()
		m, err := Open(dir, Options{CompactEvery: compactEvery})
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())
		se = sys.NewSession("proj", testTable(), core.DefaultParams())
		se.UseRules(testRules())
		if _, err := se.RunDetection(context.Background()); err != nil {
			t.Fatal(err)
		}
		se.SetPersist(m)
		if _, err := se.Stream(); err != nil {
			t.Fatal(err)
		}
		held, release := s.holdWrites()
		for n := 1; n <= compactEvery+1; n++ { // the cut, and one batch behind it
			if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
		<-held
		return m, se, dir, release
	}
	// blocked runs f on a goroutine and reports that it has not returned
	// while the write is held; the returned func releases nothing, it
	// waits for f.
	blocked := func(t *testing.T, what string, f func()) (wait func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
			t.Fatalf("%s returned while the checkpoint write was in flight", what)
		case <-time.After(20 * time.Millisecond):
		}
		return func() { <-done }
	}

	t.Run("close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		m, se, dir, release := start(t)
		wait := blocked(t, "Close", func() { m.Close() })
		release()
		wait()
		goroutinesBackTo(t, base)
		if snap, ok, err := readSnapFile(m, se.ID); err != nil || !ok || snap.Seq != compactEvery {
			t.Fatalf("Close returned before the write landed: snapshot %+v ok=%v err=%v", snap, ok, err)
		}
		if vio, _, st := recoverImage(t, dir); vio != mustJSON(t, se.Violations) || st.WALRecords != 1 {
			t.Fatalf("recovery after Close diverged (status %+v)", st)
		}
	})

	t.Run("drop", func(t *testing.T) {
		base := runtime.NumGoroutine()
		m, se, dir, release := start(t)
		se.SetPersist(nil)
		var dropErr error
		wait := blocked(t, "Drop", func() { dropErr = m.Drop(se.ID) })
		release()
		wait()
		if dropErr != nil {
			t.Fatal(dropErr)
		}
		for _, sub := range []string{"snap", "wal"} {
			if left, _ := os.ReadDir(filepath.Join(dir, sub)); len(left) > 0 {
				t.Errorf("Drop during a write left %s/%s behind", sub, left[0].Name())
			}
		}
		m.Close()
		goroutinesBackTo(t, base)
		m2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		if back, err := m2.Restore(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig())); err != nil || len(back) != 0 {
			t.Fatalf("the dropped session came back: %d sessions, err %v", len(back), err)
		}
	})

	t.Run("backup", func(t *testing.T) {
		m, se, _, release := start(t)
		defer m.Close()
		var files []File
		var err error
		wait := blocked(t, "Files", func() { files, err = m.Files(se.ID) })
		release()
		wait()
		if err != nil {
			t.Fatal(err)
		}
		img, err := ParseImage(files)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := decodeSnapFile(se.ID, img.files[0])
		if err != nil {
			t.Fatal(err)
		}
		run, _, _ := replaySegments([2][]byte{img.files[1], img.files[2]}, snap.Seq, nil)
		if snap.Seq != compactEvery || len(files) != 2 || len(run) != 1 || run[0].Seq != compactEvery+1 {
			t.Fatalf("backup: snapshot at seq %d, %d files, run %v; want the landed snapshot and one segment with the batch behind it", snap.Seq, len(files), run)
		}
	})

	t.Run("tail order", func(t *testing.T) {
		// A write that fails leaves both segments in use: the image holds
		// both, and reads back as the older one, then the one taking the
		// appends.
		m, se, _, release := start(t)
		defer m.Close()
		os.Remove(m.snapPath(se.ID) + ".tmp") // the held write's rename will fail
		release()
		files, err := m.Files(se.ID)
		if err != nil {
			t.Fatal(err)
		}
		img, err := ParseImage(files)
		if err != nil || len(files) != 3 {
			t.Fatalf("%d files, err %v; want the snapshot and both segments", len(files), err)
		}
		var seqs []int64
		run, _, _ := replaySegments([2][]byte{img.files[1], img.files[2]}, 0, nil)
		for _, r := range run {
			seqs = append(seqs, r.Seq)
		}
		if want := []int64{1, 2, 3, 4, 5}; !reflect.DeepEqual(seqs, want) {
			t.Fatalf("the image's two segments read as seqs %v, want %v", seqs, want)
		}
		if segs := journalSeqs(t, m, se.ID); len(segs[0]) != compactEvery || len(segs[1]) != 1 {
			t.Fatalf("segments hold %v", segs)
		}
	})

	t.Run("second cut", func(t *testing.T) {
		m, se, _, release := start(t)
		defer m.Close()
		landed0 := obstest.Value(t, "anmat_persist_checkpoints_total", nil)
		for n := compactEvery + 2; n < 2*compactEvery; n++ {
			if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}
		// Batch 2*compactEvery brings the next compaction due while the
		// first is still being written.
		wait := blocked(t, "the second cut", func() {
			if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil {
				t.Error(err)
			}
		})
		release()
		wait()
		if st, _ := m.Status(se.ID); st.CheckpointSeq != 2*compactEvery || st.WALRecords != 0 {
			t.Fatalf("after both writes: status %+v, want a checkpoint every %d batches", st, compactEvery)
		}
		if landed := obstest.Value(t, "anmat_persist_checkpoints_total", nil) - landed0; landed != 2 {
			t.Fatalf("%v checkpoints landed, want both", landed)
		}
	})
}

// TestCheckpointSegmentsReplay drives recovery's reading of the two
// segment files through the layouts a crash (or an older release) can
// leave: what is replayed, what each file is trimmed to, and which takes
// the next append.
func TestCheckpointSegmentsReplay(t *testing.T) {
	rec := func(seqs ...int64) []byte {
		var out []byte
		for _, s := range seqs {
			b, err := wal.Encode(wal.Record{Seq: s, Batch: stream.Batch{stream.DeleteRows(int(s))}})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	torn := func(b []byte) []byte { return b[:len(b)-3] }
	for _, c := range []struct {
		name       string
		first, sec []byte // nil: the file does not exist
		after      int64
		run        []int64
		keep       [2][]int64 // what each file decodes to afterwards
		active     int
	}{
		{name: "previous release: one file", first: rec(3, 4, 5), after: 2, run: []int64{3, 4, 5}, keep: [2][]int64{{3, 4, 5}, nil}},
		{name: "both empty", first: []byte{}, sec: []byte{}, after: 7},
		{name: "cut, write never landed", first: rec(1, 2, 3, 4), sec: rec(5, 6), after: 0, run: []int64{1, 2, 3, 4, 5, 6}, keep: [2][]int64{{1, 2, 3, 4}, {5, 6}}, active: 1},
		{name: "landed, truncate lost", first: rec(1, 2, 3, 4), sec: rec(5, 6), after: 4, run: []int64{5, 6}, keep: [2][]int64{{1, 2, 3, 4}, {5, 6}}, active: 1},
		{name: "the second segment is the older", first: rec(9, 10), sec: rec(5, 6, 7, 8), after: 4, run: []int64{5, 6, 7, 8, 9, 10}, keep: [2][]int64{{9, 10}, {5, 6, 7, 8}}, active: 0},
		{name: "torn tail of the active segment", first: rec(1, 2), sec: torn(rec(3, 4)), after: 0, run: []int64{1, 2, 3}, keep: [2][]int64{{1, 2}, {3}}, active: 1},
		{name: "active segment only garbage", first: rec(1, 2), sec: []byte("\xff\x00\xff\x00\xff\x00\xff\x00\xff"), after: 0, run: []int64{1, 2}, keep: [2][]int64{{1, 2}, nil}, active: 0},
		{name: "gap between the segments", first: rec(1, 2), sec: rec(4, 5), after: 0, run: []int64{1, 2}, keep: [2][]int64{{1, 2}, nil}, active: 0},
		{name: "gap after the cursor", first: rec(3, 4), sec: rec(5), after: 1, keep: [2][]int64{nil, nil}},
		{name: "stale records then live ones in one segment", first: rec(2, 3, 4, 5), after: 3, run: []int64{4, 5}, keep: [2][]int64{{2, 3, 4, 5}, nil}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i, b := range [][]byte{c.first, c.sec} {
				if b != nil {
					if err := os.WriteFile(m.segPath("s1", i), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			run, j, err := replaySegments([2][]byte{c.first, c.sec}, c.after, func(i int, size int64) error {
				return os.Truncate(m.segPath("s1", i), size)
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range run {
				got = append(got, r.Seq)
			}
			if !reflect.DeepEqual(got, c.run) {
				t.Errorf("replays %v, want %v", got, c.run)
			}
			kept := journalSeqs(t, m, "s1") // fails on a tear left in place
			if !reflect.DeepEqual(kept, c.keep) {
				t.Errorf("files trimmed to %v, want %v", kept, c.keep)
			}
			wantDirty := [2]bool{len(c.keep[0]) > 0, len(c.keep[1]) > 0}
			if j.active != c.active || j.dirty != wantDirty || j.WALRecords != len(c.run) || j.CheckpointSeq != c.after {
				t.Errorf("journal state %+v, want active %d dirty %v over %d records after %d", j, c.active, wantDirty, len(c.run), c.after)
			}
		})
	}
}

// TestCheckpointAlternatesSegments follows a session through three
// compactions: the journal moves to the other file at every cut, the file
// left behind is emptied when the write lands, wal_records counts from
// the last cut that landed, and a session restored in between carries on
// in the right file.
func TestCheckpointAlternatesSegments(t *testing.T) {
	const compactEvery = 3
	dir := t.TempDir()
	m, err := Open(dir, Options{CompactEvery: compactEvery})
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
	batch := stream.Batch{stream.AppendRows([]string{"90001", "LA", "85123", "FL"})}
	var where []string
	for n := 1; n <= 3*compactEvery+1; n++ {
		if n == 2*compactEvery+2 { // a restart in the middle of a cycle
			m.Close()
			if m, err = Open(dir, Options{CompactEvery: compactEvery}); err != nil {
				t.Fatal(err)
			}
			back, err := m.Restore(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
			if err != nil || len(back) != 1 {
				t.Fatalf("restore: %d sessions, err %v", len(back), err)
			}
			se = back[0]
		}
		if _, err := se.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		st, _ := m.Status(se.ID)
		if st.WALRecords != n%compactEvery || st.CheckpointSeq != int64(n-n%compactEvery) {
			t.Fatalf("after batch %d: status %+v", n, st)
		}
		seqs := journalSeqs(t, m, se.ID)
		where = append(where, fmt.Sprint(len(seqs[0]), "+", len(seqs[1])))
	}
	defer m.Close()
	// first segment + second segment records after each batch.
	want := "1+0 2+0 0+0 0+1 0+2 0+0 1+0 2+0 0+0 0+1"
	if got := strings.Join(where, " "); got != want {
		t.Fatalf("records per segment after each batch:\n got %s\nwant %s", got, want)
	}
}
