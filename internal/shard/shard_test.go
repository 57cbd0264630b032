package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// shardKs is the shard-count matrix every equivalence assertion runs at.
var shardKs = []int{1, 2, 4, 8}

// testTable is a phone→state corpus with both a constant and a variable
// rule over the same columns (mirrors the stream package's corpus).
func testTable() *table.Table {
	t := table.MustNew("Phone", []string{"phone", "state", "note"})
	t.MustAppend("8501234567", "FL", "a")
	t.MustAppend("8507654321", "FL", "b")
	t.MustAppend("2121234567", "NY", "c")
	t.MustAppend("2127654321", "NY", "d")
	t.MustAppend("3051234567", "FL", "e")
	t.MustAppend("2129999999", "CA", "f")
	t.MustAppend("8505550000", "GA", "g")
	return t
}

func testRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("Phone", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fullDetect is the reference: a fresh whole-table detection.
func fullDetect(t *testing.T, tbl *table.Table, rules []*pfd.PFD, parallelism int) []pfd.Violation {
	t.Helper()
	res, err := detect.New(tbl, detect.Options{}).DetectAllContext(context.Background(), rules, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}

// assertMerged checks the tentpole invariant: the coordinator's merged
// set is byte-identical to a fresh full detection over the global table,
// at parallelism 1 and 4.
func assertMerged(t *testing.T, c *Coordinator, tbl *table.Table, rules []*pfd.PFD) {
	t.Helper()
	got := mustJSON(t, c.Violations())
	for _, par := range []int{1, 4} {
		want := mustJSON(t, fullDetect(t, tbl, rules, par))
		if got != want {
			t.Fatalf("k=%d merged set diverged from full detection (parallelism %d):\n got %s\nwant %s", c.tr.k, par, got, want)
		}
	}
}

func TestBootstrapMatchesFullDetection(t *testing.T) {
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			tbl := testTable()
			rules := testRules()
			c, err := NewWith(tbl, rules, k, Config{})
			if err != nil {
				t.Fatal(err)
			}
			assertMerged(t, c, tbl, rules)
			if c.Seq() != 0 {
				t.Errorf("fresh coordinator seq = %d", c.Seq())
			}
			if c.Stale() {
				t.Error("fresh coordinator is stale")
			}
		})
	}
}

func TestDeltasMatchFullDetection(t *testing.T) {
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			tbl := testTable()
			rules := testRules()
			c, err := NewWith(tbl, rules, k, Config{})
			if err != nil {
				t.Fatal(err)
			}
			batches := []stream.Batch{
				{stream.AppendRows([]string{"8500000001", "TX", "h"}, []string{"2120000001", "NY", "i"})},
				{stream.UpdateCell(2, "state", "CT")},
				{stream.UpdateCell(0, "phone", "2121230000")}, // moves the row's block key
				{stream.DeleteRows(1, 4)},
				{stream.AppendRows([]string{"8501111111", "FL", "j"}), stream.UpdateCell(0, "state", "AL"), stream.DeleteRows(3)},
			}
			for i, b := range batches {
				if _, err := c.ApplyCtx(context.Background(), b); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				assertMerged(t, c, tbl, rules)
				if got := int64(i + 1); c.Seq() != got {
					t.Fatalf("batch %d: seq = %d", i, c.Seq())
				}
			}
		})
	}
}

// TestKeyMoveAcrossShards drives a specific update that changes a row's
// block key — and with it, the shard owning the row — and verifies the
// row migrated (placement-wise) and the merged set stays exact.
func TestKeyMoveAcrossShards(t *testing.T) {
	tbl := testTable()
	rules := testRules()
	c, err := NewWith(tbl, rules, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(c.tr.rows[0].locals)
	// 850… → 212…: the variable row's key moves from block "850" to "212".
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "phone", "2120007777")}); err != nil {
		t.Fatal(err)
	}
	assertMerged(t, c, tbl, rules)
	owner850, owner212 := Owner("850", 4), Owner("212", 4)
	if owner850 != owner212 {
		if _, ok := c.tr.rows[0].local(owner212); !ok {
			t.Errorf("row 0 not hosted on the new key's owner shard %d (placement %v -> %v)", owner212, before, c.tr.rows[0].locals)
		}
		if _, ok := c.tr.rows[0].local(owner850); ok && owner850 != int(c.tr.rows[0].home) {
			t.Errorf("row 0 still hosted on the old key's owner shard %d", owner850)
		}
	}
	// And back, plus a conflicting value, to exercise re-migration.
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "phone", "8500007777"), stream.UpdateCell(0, "state", "NV")}); err != nil {
		t.Fatal(err)
	}
	assertMerged(t, c, tbl, rules)
}

// TestDeleteSpanningShards deletes rows hosted on different shards in one
// batch, so global renumbering crosses every shard's local space.
func TestDeleteSpanningShards(t *testing.T) {
	for _, k := range shardKs {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			tbl := testTable()
			rules := testRules()
			c, err := NewWith(tbl, rules, k, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.DeleteRows(0, 3, 6)}); err != nil {
				t.Fatal(err)
			}
			assertMerged(t, c, tbl, rules)
			if tbl.NumRows() != 4 {
				t.Fatalf("global rows = %d", tbl.NumRows())
			}
			// Every surviving row's recorded locals must resolve back to it —
			// in the translator's mirror AND on the nodes themselves.
			for g, place := range c.tr.rows {
				for _, lr := range place.locals {
					s, local := int(lr.shard), int(lr.local)
					if got := c.tr.globalOf[s][local]; got != g {
						t.Fatalf("row %d: shard %d local %d maps to global %d", g, s, local, got)
					}
					node := c.nodes[s].(*LocalNode)
					if got := node.globalOf[local]; got != g {
						t.Fatalf("row %d: shard %d node local %d maps to global %d", g, s, local, got)
					}
					if mustJSON(t, node.Table().Row(local)) != mustJSON(t, tbl.Row(g)) {
						t.Fatalf("row %d: shard %d copy diverged", g, s)
					}
				}
			}
		})
	}
}

func TestCoordinatorSinceAndDiffs(t *testing.T) {
	tbl := testTable()
	rules := testRules()
	c, err := NewWith(tbl, rules, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Shadow state folded from diffs must track Violations exactly.
	shadow := make(map[string]pfd.Violation)
	for _, v := range c.Violations() {
		shadow[v.Key()] = v
	}
	batches := []stream.Batch{
		{stream.AppendRows([]string{"8509990000", "CA", "x"})},
		{stream.UpdateCell(7, "state", "FL")},
		{stream.DeleteRows(2)},
	}
	for i, b := range batches {
		diff, err := c.ApplyCtx(context.Background(), b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, v := range diff.Removed {
			delete(shadow, v.Key())
		}
		for _, v := range diff.Added {
			shadow[v.Key()] = v
		}
		want := c.Violations()
		folded := make([]pfd.Violation, 0, len(shadow))
		for _, v := range shadow {
			folded = append(folded, v)
		}
		detect.SortViolations(folded)
		if mustJSON(t, folded) != mustJSON(t, want) {
			t.Fatalf("batch %d: folding diffs diverged from the merged set", i)
		}
	}
	// Since(0) must net to exactly "current minus bootstrap".
	diff, err := c.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Seq != 3 || diff.Reset {
		t.Fatalf("since(0) = seq %d reset %v", diff.Seq, diff.Reset)
	}
	// A cursor at the head is empty; one beyond it errors.
	head, err := c.Since(3)
	if err != nil || len(head.Added)+len(head.Removed) != 0 {
		t.Fatalf("since(head) = %+v, %v", head, err)
	}
	if _, err := c.Since(4); err == nil {
		t.Fatal("cursor beyond head must error")
	}
}

func TestCoordinatorStaleAndBadBatch(t *testing.T) {
	tbl := testTable()
	c, err := NewWith(tbl, testRules(), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.UpdateCell(99, "state", "FL")}); err == nil {
		t.Fatal("out-of-range update must be rejected")
	}
	// A rejected batch changes nothing.
	assertMerged(t, c, tbl, testRules())
	tbl.SetCell(0, 1, "ZZ") // external mutation
	if !c.Stale() {
		t.Fatal("externally mutated table must mark the coordinator stale")
	}
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.UpdateCell(0, "state", "FL")}); err == nil {
		t.Fatal("stale coordinator must refuse batches")
	}
}

func TestCoordinatorStats(t *testing.T) {
	tbl := testTable()
	c, err := NewWith(tbl, testRules(), 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Shards != 4 || st.Rows != tbl.NumRows() {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard entries = %d", len(st.PerShard))
	}
	total := 0
	for _, ps := range st.PerShard {
		total += ps.Rows
	}
	if st.Replication < 1.0 || float64(total) != st.Replication*float64(st.Rows) {
		t.Fatalf("replication %v inconsistent with shard rows %d / global %d", st.Replication, total, st.Rows)
	}
	if st.Violations != len(c.Violations()) {
		t.Fatalf("stats violations %d != %d", st.Violations, len(c.Violations()))
	}
}

// TestBootHonoursParallelism: Config.Parallelism bounds the workers the
// K node boots run on together. At parallelism 1 the two nodes of K = 2
// boot one at a time, each in-process node on one worker, and the merged
// set is the full detection's.
func TestBootHonoursParallelism(t *testing.T) {
	tbl, rules := testTable(), testRules()
	c, err := NewWith(tbl, rules, 2, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s, ps := range c.Stats().PerShard {
		if ps.Engine.BootWorkers != 1 {
			t.Fatalf("shard %d booted on %d workers at parallelism 1", s, ps.Engine.BootWorkers)
		}
	}
	assertMerged(t, c, tbl, rules)

	var live, peak atomic.Int32
	_, err = NewWith(tbl, rules, 2, Config{Parallelism: 1, NewNode: func(s int, boot NodeBoot, rules []*pfd.PFD) (Node, error) {
		n := live.Add(1)
		defer live.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond) // long enough for a second boot to overlap
		return NewLocalNode(boot, rules)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d node boots ran at once at parallelism 1", p)
	}
}

func TestOwnerDeterministicAndInRange(t *testing.T) {
	keys := []string{"", "850", "212", "90", "\x1fa\x1fb", "long-key-with-more-bytes"}
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, key := range keys {
			s := Owner(key, k)
			if s < 0 || s >= k {
				t.Fatalf("Owner(%q, %d) = %d out of range", key, k, s)
			}
			if s != Owner(key, k) {
				t.Fatalf("Owner(%q, %d) not deterministic", key, k)
			}
		}
	}
	// Jump-hash consistency: growing the shard count never moves a key
	// that jump assigns below the old count... (monotone property: a key's
	// bucket under k+1 is either its bucket under k or the new bucket k).
	for _, key := range keys {
		for k := 1; k < 16; k++ {
			a, b := Owner(key, k), Owner(key, k+1)
			if b != a && b != k {
				t.Fatalf("Owner(%q): %d shards -> %d, %d shards -> %d (not consistent)", key, k, a, k+1, b)
			}
		}
	}
}

// TestCoordinatorSinkWriteAhead pins the coordinator's two journal hooks
// (the stream.Sequencer contract, see stream's TestSinkWriteAhead): the
// session sink sees every applied batch with its seq before anything
// mutates and its error aborts the batch untouched; a detached sink is
// bypassed; the coordinator's own Journal hook sees every applied batch;
// and a Journal failure after the sink took a batch poisons the
// coordinator, so that seq never reaches the sink again.
func TestCoordinatorSinkWriteAhead(t *testing.T) {
	tbl, rules := testTable(), testRules()
	var journaled []int64
	c, err := NewWith(tbl, rules, 2, Config{
		BaseSeq: 10,
		Journal: func(_ context.Context, seq int64, _ stream.Batch) error {
			journaled = append(journaled, seq)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type call struct {
		seq  int64
		rows int // table rows observed at call time (pre-mutation)
	}
	var calls []call
	var fail bool
	c.SetSink(func(_ context.Context, seq int64, _ stream.Batch) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		calls = append(calls, call{seq, tbl.NumRows()})
		return nil
	})
	rows := tbl.NumRows()
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"8501112222", "TX", "h"})}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != (call{11, rows}) {
		t.Fatalf("sink calls = %+v, want one at seq 11 seeing %d rows (write-ahead)", calls, rows)
	}
	fail = true
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"8503334444", "TX", "i"})}); err == nil {
		t.Fatal("ApplyCtx should surface the sink error")
	}
	if tbl.NumRows() != rows+1 || c.Seq() != 11 || c.Stale() {
		t.Fatalf("failed journal mutated state: %d rows, seq %d, stale %v", tbl.NumRows(), c.Seq(), c.Stale())
	}
	// A detached sink is bypassed: the batch advances like any other.
	c.SetSink(nil)
	if _, err := c.ApplyCtx(context.Background(), stream.Batch{stream.AppendRows([]string{"8503334444", "TX", "i"})}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || tbl.NumRows() != rows+2 || c.Seq() != 12 {
		t.Fatalf("detached sink: calls %+v, %d rows, seq %d", calls, tbl.NumRows(), c.Seq())
	}
	if mustJSON(t, journaled) != "[11,12]" {
		t.Fatalf("coordinator journal saw seqs %v, want [11 12] (the sink-refused batch never reached it)", journaled)
	}
	assertMerged(t, c, tbl, rules)

	// The cluster journal fails on its second call, after the sink took
	// batch 2: the coordinator is poisoned, so the next batch is refused
	// instead of being handed to the sink as 2 again.
	journals := 0
	p, err := NewWith(testTable(), rules, 2, Config{
		Journal: func(context.Context, int64, stream.Batch) error {
			if journals++; journals == 2 {
				return fmt.Errorf("cluster journal: disk full")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var sunk []int64
	p.SetSink(func(_ context.Context, seq int64, _ stream.Batch) error {
		sunk = append(sunk, seq)
		return nil
	})
	for i, row := range [][]string{{"8505556666", "TX", "j"}, {"8507778888", "TX", "k"}, {"8509990000", "TX", "l"}} {
		_, err := p.ApplyCtx(context.Background(), stream.Batch{stream.AppendRows(row)})
		switch {
		case i == 0 && err != nil:
			t.Fatal(err)
		case i == 1 && !errors.Is(err, stream.ErrNotApplied):
			t.Fatalf("batch 2: err = %v, want stream.ErrNotApplied", err)
		case i == 2 && err == nil:
			t.Fatal("batch 3 was applied by a poisoned coordinator")
		}
	}
	if mustJSON(t, sunk) != "[1,2]" || p.Seq() != 1 || !p.Stale() {
		t.Fatalf("after a failed cluster journal: sink saw %v, seq %d, stale %v; want [1 2], 1, true", sunk, p.Seq(), p.Stale())
	}
}
