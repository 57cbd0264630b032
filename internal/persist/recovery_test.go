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
	"github.com/anmat/anmat/internal/docstore"
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
// coordinator); either way the session journals into its one WAL, which
// is the file the crash damages — or it dies inside a checkpoint, or
// cannot write one at all (the ckpt-* styles).
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

func crashRecoveryOnce(t *testing.T, style crashStyle, seed int64, shards int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	// Alternate between aggressive compaction (snapshot churn mid-script)
	// and none (long WAL tails).
	compactEvery := 1000
	if seed%2 == 0 || style == crashCkptFailed {
		compactEvery = 3
	}
	script := &recoveryScript{Seed: seed, Style: style, Shards: shards, CompactEvery: compactEvery}
	defer func() {
		if t.Failed() {
			dumpFailure(t, script)
		}
	}()

	m, err := Open(dir, Options{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.MustNew("T", []string{"code", "city", "phone", "state"})
	for i := 0; i < 10+rng.Intn(8); i++ {
		tbl.MustAppend(recoveryRow(rng)...)
	}
	var csvBuf bytes.Buffer
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	script.InitialCSV = csvBuf.String()

	sys := core.NewSystem(docstore.NewMem())
	se := sys.NewSessionWith("proj", tbl, core.SessionConfig{Params: core.DefaultParams(), Shards: shards})
	se.UseRules(testRules())
	ctx := context.Background()
	if _, err := se.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	se.SetPersist(m)
	if err := se.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Apply a random script, recording per-seq ground truth: the table
	// and violation set after every applied batch (seq 0 = bootstrap).
	shadowTbl := map[int64]*table.Table{0: tbl.Clone()}
	vioAt := map[int64][]pfd.Violation{0: se.Violations}
	walPath := m.walPath(se.ID)
	if style == crashCkptFailed {
		// Once the engine has its baseline snapshot (the first delta would
		// build it), a directory where the temporary file goes fails every
		// snapshot write, whoever runs the test (root ignores modes).
		if _, err := se.Stream(); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(m.snapPath(se.ID)+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	finalSeq := int64(0)
	var sizeBeforeLast, sizeAfterLast int64
	steps := 3 + rng.Intn(14)
	for step := 0; step < steps; step++ {
		batch := randBatch(rng, se.Table)
		before := fileSize(walPath)
		diff, err := se.ApplyDeltas(batch)
		var perr *core.PersistenceError
		if diff != nil && errors.As(err, &perr) && style == crashCkptFailed {
			// The batch was journaled and applied; only the compaction
			// after it failed, and must not have touched the bookkeeping.
			if st, _ := m.Status(se.ID); st.WALRecords != len(script.Batches)+1 || st.CheckpointSeq != 0 {
				t.Fatalf("status after a failed checkpoint = %+v, want %d journaled batches on the seq-0 snapshot", st, len(script.Batches)+1)
			}
			err = nil
		}
		if err != nil {
			continue // validation rejected (e.g. delete+update race in one batch): no-op
		}
		script.Batches = append(script.Batches, batch)
		finalSeq = diff.Seq
		shadowTbl[finalSeq] = se.Table.Clone()
		vioAt[finalSeq] = se.Violations
		sizeBeforeLast, sizeAfterLast = before, fileSize(walPath)
	}

	if style == crashCkptFailed {
		err := se.Checkpoint()
		if st, _ := m.Status(se.ID); !errors.As(err, new(*core.PersistenceError)) || st.WALRecords != len(script.Batches) {
			t.Fatalf("checkpoint with snapshot writes failing: err = %v, status %+v; want a PersistenceError and all %d batches still journaled", err, st, len(script.Batches))
		}
	}

	// Crash: abandon all in-memory state; optionally damage the WAL tail
	// or leave a checkpoint half done.
	m.Close()
	expectSeq := finalSeq
	switch style {
	case crashCkptTmp, crashCkptRenamed:
		snap := se.Snapshot()
		blob, err := encodeSnapFile(snap)
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
		// last applied batch actually left bytes in the WAL (a batch that
		// triggered compaction emptied it — nothing to tear).
		if sizeAfterLast > sizeBeforeLast {
			cut := sizeBeforeLast + 1 + rng.Int63n(sizeAfterLast-sizeBeforeLast-1)
			if err := os.Truncate(walPath, cut); err != nil {
				t.Fatal(err)
			}
			script.CutBytes = sizeAfterLast - cut
			expectSeq = finalSeq - 1
		}
	case crashGarbage:
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 1+rng.Intn(40))
		rng.Read(junk)
		f.Write(junk)
		f.Close()
	}

	// Recover into a fresh process image.
	m2, err := Open(dir, Options{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Restore(core.NewSystem(docstore.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("restored %d sessions, want 1", len(sessions))
	}
	back := sessions[0]
	if left, _ := filepath.Glob(filepath.Join(dir, "snap", "*.tmp")); len(left) > 0 {
		t.Fatalf("restore left %v behind", left)
	}

	// (1) The recovered table is exactly the surviving prefix's table.
	want := shadowTbl[expectSeq]
	if back.Table.NumRows() != want.NumRows() {
		t.Fatalf("recovered %d rows, want %d (seq %d of %d)", back.Table.NumRows(), want.NumRows(), expectSeq, finalSeq)
	}
	for r := 0; r < want.NumRows(); r++ {
		if !reflect.DeepEqual(back.Table.Row(r), want.Row(r)) {
			t.Fatalf("recovered row %d = %v, want %v", r, back.Table.Row(r), want.Row(r))
		}
	}

	// (2) Recovered violations are byte-identical to a fresh full
	// detection over the recovered table, at parallelism 1 and 4.
	gotVio := mustJSON(t, back.Violations)
	for _, par := range []int{1, 4} {
		res, err := detect.New(back.Table, detect.Options{}).DetectAllContext(ctx, back.Confirmed, par)
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
	for c := int64(0); c <= expectSeq; c++ {
		diff, err := eng.Since(c)
		if err != nil {
			t.Fatalf("cursor %d: %v", c, err)
		}
		folded := foldDiff(vioAt[c], diff)
		if got := mustJSON(t, folded); got != gotVio {
			t.Fatalf("cursor %d (reset=%v): folded state diverges:\n got %s\nwant %s", c, diff.Reset, got, gotVio)
		}
	}
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
