package persist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/obs/obstest"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// crashStyle is how the simulated crash damages the durable state.
type crashStyle string

const (
	// crashClean kills the process between batches: snapshot and WAL are
	// both intact.
	crashClean crashStyle = "clean"
	// crashTorn kills the process mid-WAL-append: the final record is cut
	// at a random byte (possibly inside the length prefix).
	crashTorn crashStyle = "torn"
	// crashGarbage leaves intact records followed by non-record bytes
	// (e.g. a reused disk block).
	crashGarbage crashStyle = "garbage"
	// crashCkptTmp kills the process inside a checkpoint, part of the way
	// through writing the temporary file: the previous snapshot and the
	// whole WAL are what recovery has.
	crashCkptTmp crashStyle = "ckpt-tmp"
	// crashCkptRenamed kills it one step later: the new snapshot is
	// published but the WAL, now all at or below its cursor, was never
	// truncated.
	crashCkptRenamed crashStyle = "ckpt-renamed"
	// crashCkptFailed runs the whole script with snapshot writes failing
	// (compaction comes due every 3rd batch and is refused every time):
	// the baseline snapshot and an ever-growing WAL carry every batch.
	crashCkptFailed crashStyle = "ckpt-failed"
)

// crashStyles is every way TestCrashRecoveryEquivalence ends a run.
var crashStyles = []crashStyle{crashClean, crashTorn, crashGarbage, crashCkptTmp, crashCkptRenamed, crashCkptFailed}

// TestCrashRecoveryEquivalence is the durability layer's acceptance
// property: run a session with persistence attached, apply a random delta
// script, kill it at a random batch boundary (optionally tearing the
// final WAL record or appending garbage), recover into a fresh process,
// and require that
//
//  1. the recovered table equals the expected surviving prefix,
//  2. the recovered violation set is byte-identical to a fresh full
//     detection over the recovered table at parallelism 1 and 4, and
//  3. every `since` cursor issued before the crash resolves to a diff
//     that folds the cursor-time set exactly onto the recovered set
//     (or to a flagged snapshot reset).
//
// A failing script is dumped to testdata/failures/ so CI can upload it.
//
// The property runs both unsharded (one engine) and sharded (K=4: a
// coordinator), writer and recovery in systems of the same K; either way
// the session journals into its one WAL, and
// the crash damages the segment file that holds the last record — or it
// dies inside a checkpoint, or cannot write one at all (the ckpt-*
// styles; TestCheckpointCrashMidRotation kills the background write
// itself).
func TestCrashRecoveryEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, style := range crashStyles {
			for seed := int64(0); seed < 4; seed++ {
				shards, style, seed := shards, style, seed
				t.Run(fmt.Sprintf("k%d/%s/seed%d", shards, style, seed), func(t *testing.T) {
					crashRecoveryOnce(t, style, seed, shards)
				})
			}
		}
	}
}

// recoveryScript records everything needed to replay one property-test
// run by hand; it is what gets dumped on failure.
type recoveryScript struct {
	Seed         int64          `json:"seed"`
	Style        crashStyle     `json:"style"`
	Shards       int            `json:"shards,omitempty"`
	CompactEvery int            `json:"compact_every"`
	InitialCSV   string         `json:"initial_csv"`
	Batches      []stream.Batch `json:"batches"`
	CutBytes     int64          `json:"cut_bytes,omitempty"`
}

// recoveryRun is one session under a random delta script, with the
// ground truth recovery is checked against: the table and the violation
// set after every acknowledged batch (seq 0 = bootstrap).
type recoveryRun struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	script *recoveryScript
	m      *Manager
	se     *core.Session

	shadowTbl map[int64]*table.Table
	vioAt     map[int64][]pfd.Violation
	finalSeq  int64
	// unsettled makes step return without waiting for a checkpoint write
	// the batch started (a test is holding it).
	unsettled bool
	// lastSeg is the segment file the last acknowledged batch was
	// journaled into, with its size before and after; after is taken once
	// the checkpoint write the batch may have started has ended.
	lastSeg                       string
	sizeBeforeLast, sizeAfterLast int64
}

// startRecoveryRun builds a detected session over a random table,
// attached to a manager at a fresh directory, with its baseline snapshot
// written and its engine built.
func startRecoveryRun(t *testing.T, style crashStyle, seed int64, shards, compactEvery int) *recoveryRun {
	r := &recoveryRun{
		t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(),
		script: &recoveryScript{Seed: seed, Style: style, Shards: shards, CompactEvery: compactEvery},
	}
	t.Cleanup(func() {
		if t.Failed() {
			dumpFailure(t, r.script)
		}
	})
	m, err := Open(r.dir, Options{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.MustNew("T", []string{"code", "city", "phone", "state"})
	for i := 0; i < 10+r.rng.Intn(8); i++ {
		tbl.MustAppend(recoveryRow(r.rng)...)
	}
	var csvBuf bytes.Buffer
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	r.script.InitialCSV = csvBuf.String()

	se := shardedSystem(shards).NewSession("proj", tbl, core.DefaultParams())
	se.UseRules(testRules())
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Build the engine now (the first delta would): from here on every
	// checkpoint is a compaction.
	if _, err := se.Stream(); err != nil {
		t.Fatal(err)
	}
	r.m, r.se, r.lastSeg = m, se, m.segPath(se.ID, 0)
	r.shadowTbl = map[int64]*table.Table{0: tbl.Clone()}
	r.vioAt = map[int64][]pfd.Violation{0: se.Violations}
	return r
}

// step applies one random batch and, when it was acknowledged (validation
// may reject it, e.g. a delete racing an update inside the batch), records
// the ground truth at its sequence number.
func (r *recoveryRun) step() (acked bool) {
	r.t.Helper()
	batch := randBatch(r.rng, r.se.Table)
	ws, err := r.m.state(r.se.ID)
	if err != nil {
		r.t.Fatal(err)
	}
	ws.mu.Lock()
	seg := r.m.segPath(r.se.ID, ws.active)
	ws.mu.Unlock()
	before := fileSize(seg)
	diff, err := r.se.ApplyDeltasCtx(context.Background(), batch)
	if err != nil {
		if diff != nil {
			r.t.Fatalf("batch applied (seq %d) but not acknowledged: %v", diff.Seq, err)
		}
		return false
	}
	r.script.Batches = append(r.script.Batches, batch)
	r.finalSeq = diff.Seq
	r.shadowTbl[diff.Seq] = r.se.Table.Clone()
	r.vioAt[diff.Seq] = r.se.Violations
	if !r.unsettled {
		r.m.Status(r.se.ID) // waits for the write this batch may have started
	}
	r.lastSeg, r.sizeBeforeLast, r.sizeAfterLast = seg, before, fileSize(seg)
	return true
}

// recoverAndCheck opens the directory in a fresh process image and holds
// the recovered session to the three properties, expectSeq being the last
// batch that must have survived. It returns the recovered pair so a test
// can go on with it.
func (r *recoveryRun) recoverAndCheck(expectSeq int64) (*core.Session, *Manager) {
	t := r.t
	t.Helper()
	m2, err := Open(r.dir, Options{CompactEvery: r.script.CompactEvery})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.Close() })
	sessions, err := m2.Restore(shardedSystem(r.script.Shards))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("restored %d sessions, want 1", len(sessions))
	}
	back := sessions[0]
	if left, _ := filepath.Glob(filepath.Join(r.dir, "snap", "*.tmp")); len(left) > 0 {
		t.Fatalf("restore left %v behind", left)
	}

	// (1) The recovered table is exactly the surviving prefix's table: no
	// acknowledged batch lost, none applied twice.
	want := r.shadowTbl[expectSeq]
	if back.Table.NumRows() != want.NumRows() {
		t.Fatalf("recovered %d rows, want %d (seq %d of %d)", back.Table.NumRows(), want.NumRows(), expectSeq, r.finalSeq)
	}
	for i := 0; i < want.NumRows(); i++ {
		if !reflect.DeepEqual(back.Table.Row(i), want.Row(i)) {
			t.Fatalf("recovered row %d = %v, want %v", i, back.Table.Row(i), want.Row(i))
		}
	}

	// (2) Recovered violations are byte-identical to a fresh full
	// detection over the recovered table, at parallelism 1 and 4.
	gotVio := mustJSON(t, back.Violations)
	for _, par := range []int{1, 4} {
		res, err := detect.New(back.Table, detect.Options{}).DetectAllContext(context.Background(), back.Confirmed, par)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := mustJSON(t, res.Violations); gotVio != fresh {
			t.Fatalf("parallelism %d: recovered violations diverge from full re-detect:\n got %s\nwant %s", par, gotVio, fresh)
		}
	}

	// (3) Every cursor issued before the crash folds exactly onto the
	// recovered set. Cursors beyond expectSeq were never issued: the torn
	// batch crashed during its write-ahead append, before any client saw
	// its diff.
	eng, err := back.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Seq() != expectSeq {
		t.Fatalf("recovered engine at seq %d, want %d", eng.Seq(), expectSeq)
	}
	for c := int64(0); c <= expectSeq; c++ {
		diff, err := eng.Since(c)
		if err != nil {
			t.Fatalf("cursor %d: %v", c, err)
		}
		folded := foldDiff(r.vioAt[c], diff)
		if got := mustJSON(t, folded); got != gotVio {
			t.Fatalf("cursor %d (reset=%v): folded state diverges:\n got %s\nwant %s", c, diff.Reset, got, gotVio)
		}
	}
	return back, m2
}

func crashRecoveryOnce(t *testing.T, style crashStyle, seed int64, shards int) {
	// Alternate between aggressive compaction (snapshot churn mid-script)
	// and none (long WAL tails).
	compactEvery := 1000
	if seed%2 == 0 || style == crashCkptFailed {
		compactEvery = 3
	}
	r := startRecoveryRun(t, style, seed, shards, compactEvery)
	m, se, rng := r.m, r.se, r.rng
	if style == crashCkptFailed {
		// With the engine's baseline snapshot written, a directory where
		// the temporary file goes fails every snapshot write, whoever runs
		// the test (root ignores modes).
		if err := os.Mkdir(m.snapPath(se.ID)+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	failures0 := obstest.Value(t, "anmat_persist_checkpoint_failures_total", nil)
	steps := 3 + rng.Intn(14)
	for step := 0; step < steps; step++ {
		if !r.step() || style != crashCkptFailed {
			continue
		}
		// The batch was journaled, applied and acknowledged; the
		// compaction behind it fails (every batch from the third on starts
		// one) and must not have touched the bookkeeping.
		n := len(r.script.Batches)
		if st, _ := m.Status(se.ID); st.WALRecords != n || st.CheckpointSeq != 0 {
			t.Fatalf("status after a failed checkpoint = %+v, want %d journaled batches on the seq-0 snapshot", st, n)
		}
		if got, want := obstest.Value(t, "anmat_persist_checkpoint_failures_total", nil)-failures0, float64(max(0, n-compactEvery+1)); got != want {
			t.Fatalf("%v failed checkpoint writes counted after %d batches, want %v", got, n, want)
		}
	}

	if style == crashCkptFailed {
		err := se.Checkpoint()
		if st, _ := m.Status(se.ID); !errors.As(err, new(*core.PersistenceError)) || st.WALRecords != len(r.script.Batches) {
			t.Fatalf("checkpoint with snapshot writes failing: err = %v, status %+v; want a PersistenceError and all %d batches still journaled", err, st, len(r.script.Batches))
		}
	}

	// Crash: abandon all in-memory state; optionally damage the WAL tail
	// or leave a checkpoint half done.
	m.Close()
	expectSeq := r.finalSeq
	switch style {
	case crashCkptTmp, crashCkptRenamed:
		snap := se.Snapshot()
		blob, err := encodeSnapFile(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		path := m.snapPath(se.ID)
		if style == crashCkptTmp {
			path, blob = path+".tmp", blob[:rng.Intn(len(blob)+1)]
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	case crashTorn:
		// Cut the final record at a random byte. Only possible when the
		// last applied batch actually left bytes in the WAL (a batch whose
		// compaction landed emptied its segment — nothing to tear).
		if r.sizeAfterLast > r.sizeBeforeLast {
			cut := r.sizeBeforeLast + 1 + rng.Int63n(r.sizeAfterLast-r.sizeBeforeLast-1)
			if err := os.Truncate(r.lastSeg, cut); err != nil {
				t.Fatal(err)
			}
			r.script.CutBytes = r.sizeAfterLast - cut
			expectSeq = r.finalSeq - 1
		}
	case crashGarbage:
		f, err := os.OpenFile(r.lastSeg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 1+rng.Intn(40))
		rng.Read(junk)
		f.Write(junk)
		f.Close()
	}
	r.recoverAndCheck(expectSeq)
}

// foldDiff applies a violation diff to a base set, mirroring what a
// polling client does with a since= response.
func foldDiff(base []pfd.Violation, d *stream.Diff) []pfd.Violation {
	m := make(map[string]pfd.Violation, len(base))
	if !d.Reset {
		for _, v := range base {
			m[v.Key()] = v
		}
	}
	for _, v := range d.Removed {
		delete(m, v.Key())
	}
	for _, v := range d.Added {
		m[v.Key()] = v
	}
	out := make([]pfd.Violation, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	detect.SortViolations(out)
	return out
}

// recoveryRow draws from small pools so block collisions are common.
func recoveryRow(rng *rand.Rand) []string {
	codes := []string{"90001", "90002", "10001", "85777", "85778", "abcde", ""}
	cities := []string{"LA", "NY", "SF", ""}
	phones := []string{"85123", "85124", "21111", "21112", "90909", "xyz"}
	states := []string{"FL", "NY", "CA"}
	return []string{
		codes[rng.Intn(len(codes))],
		cities[rng.Intn(len(cities))],
		phones[rng.Intn(len(phones))],
		states[rng.Intn(len(states))],
	}
}

// randBatch builds a random mixed delta batch against the current table.
func randBatch(rng *rand.Rand, tbl *table.Table) stream.Batch {
	columns := tbl.Columns()
	var batch stream.Batch
	for len(batch) == 0 {
		for _, kind := range []stream.OpKind{stream.OpAppend, stream.OpUpdate, stream.OpDelete} {
			if rng.Intn(3) != 0 {
				continue
			}
			switch kind {
			case stream.OpAppend:
				k := 1 + rng.Intn(3)
				rows := make([][]string, k)
				for i := range rows {
					rows[i] = recoveryRow(rng)
				}
				batch = append(batch, stream.AppendRows(rows...))
			case stream.OpUpdate:
				if tbl.NumRows() == 0 {
					continue
				}
				batch = append(batch, stream.UpdateCell(
					rng.Intn(tbl.NumRows()),
					columns[rng.Intn(len(columns))],
					recoveryRow(rng)[rng.Intn(4)],
				))
			case stream.OpDelete:
				if tbl.NumRows() < 4 {
					continue
				}
				k := 1 + rng.Intn(2)
				drop := make([]int, k)
				for i := range drop {
					drop[i] = rng.Intn(tbl.NumRows())
				}
				batch = append(batch, stream.DeleteRows(drop...))
			}
		}
	}
	return batch
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// dumpFailure writes the failing script to testdata/failures/ so a human
// (or the CI artifact upload) can replay it.
func dumpFailure(t *testing.T, script *recoveryScript) {
	t.Helper()
	dir := filepath.Join("testdata", "failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("dump failure corpus: %v", err)
		return
	}
	b, err := json.MarshalIndent(script, "", " ")
	if err != nil {
		t.Logf("dump failure corpus: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", script.Style, script.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Logf("dump failure corpus: %v", err)
		return
	}
	t.Logf("failing recovery script written to %s", path)
}
