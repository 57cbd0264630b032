package stream

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// streamTable is a phone→state corpus with both a constant and a variable
// rule over the same columns.
func streamTable() *table.Table {
	t := table.MustNew("Phone", []string{"phone", "state", "note"})
	t.MustAppend("8501234567", "FL", "a")
	t.MustAppend("8507654321", "FL", "b")
	t.MustAppend("2121234567", "NY", "c")
	t.MustAppend("2127654321", "NY", "d")
	t.MustAppend("3051234567", "FL", "e")
	return t
}

func streamRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("Phone", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
}

// fullDetect is the reference: a fresh engine over the current table.
func fullDetect(t *testing.T, tbl *table.Table, rules []*pfd.PFD, parallelism int) []pfd.Violation {
	t.Helper()
	res, err := detect.New(tbl, detect.Options{}).DetectAllContext(context.Background(), rules, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertMaintained checks the byte-identity invariant: the maintained set
// equals a fresh full detection at parallelism 1 and 4.
func assertMaintained(t *testing.T, e *Engine, tbl *table.Table, rules []*pfd.PFD) {
	t.Helper()
	got := mustJSON(t, e.Violations())
	for _, par := range []int{1, 4} {
		want := mustJSON(t, fullDetect(t, tbl, rules, par))
		if got != want {
			t.Fatalf("maintained set diverged from full detection (parallelism %d):\n got %s\nwant %s", par, got, want)
		}
	}
}

func TestEngineBootstrapMatchesFullDetection(t *testing.T) {
	tbl := streamTable()
	rules := streamRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, e, tbl, rules)
	if e.Seq() != 0 {
		t.Errorf("fresh engine seq = %d", e.Seq())
	}
}

func TestEngineAppendUpdateDelete(t *testing.T) {
	tbl := streamTable()
	rules := streamRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Append a dirty row: violates the constant rule and conflicts with
	// the 850 block of the variable rule.
	diff, err := e.Apply(Batch{AppendRows([]string{"8509999999", "GA", "x"})})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Seq != 1 || diff.Rows != 6 {
		t.Errorf("diff header = seq %d rows %d", diff.Seq, diff.Rows)
	}
	if len(diff.Added) == 0 || len(diff.Removed) != 0 {
		t.Errorf("append diff = +%d -%d, want additions only", len(diff.Added), len(diff.Removed))
	}
	assertMaintained(t, e, tbl, rules)

	// Repair the dirty cell: the violations disappear.
	diff, err = e.Apply(Batch{UpdateCell(5, "state", "FL")})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 0 || len(diff.Removed) == 0 {
		t.Errorf("repair diff = +%d -%d, want removals only", len(diff.Added), len(diff.Removed))
	}
	assertMaintained(t, e, tbl, rules)

	// A no-op update produces an empty diff but still advances the seq.
	diff, err = e.Apply(Batch{UpdateCell(5, "state", "FL")})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added)+len(diff.Removed) != 0 || diff.Seq != 3 {
		t.Errorf("no-op diff = %+v", diff)
	}

	// Make row 2 dirty, then delete it: the delete removes its violations
	// and renumbers the survivors.
	if _, err := e.Apply(Batch{UpdateCell(2, "state", "NJ")}); err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, e, tbl, rules)
	diff, err = e.Apply(Batch{DeleteRows(2)})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5 {
		t.Fatalf("rows after delete = %d", tbl.NumRows())
	}
	assertMaintained(t, e, tbl, rules)
	_ = diff

	// Mixed batch: append, update, and delete in one atomic unit.
	_, err = e.Apply(Batch{
		AppendRows([]string{"2120000000", "CT", "y"}, []string{"8500000001", "FL", "z"}),
		UpdateCell(0, "phone", "2125550000"),
		DeleteRows(1, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertMaintained(t, e, tbl, rules)
}

func TestEngineValidation(t *testing.T) {
	tbl := streamTable()
	e, err := NewEngineFrom(tbl, streamRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	before := mustJSON(t, e.Violations())
	cases := []Batch{
		{AppendRows()},                         // no rows
		{AppendRows([]string{"too", "short"})}, // arity
		{UpdateCell(99, "state", "FL")},        // range
		{UpdateCell(0, "nope", "FL")},          // column
		{DeleteRows()},                         // no rows
		{DeleteRows(99)},                       // range
		{{Kind: "merge"}},                      // unknown op
		{DeleteRows(0, 1, 2, 3, 4), UpdateCell(0, "state", "FL")}, // update after full delete
	}
	for i, b := range cases {
		if _, err := e.Apply(b); err == nil {
			t.Errorf("case %d: batch should be rejected: %+v", i, b)
		}
	}
	if got := mustJSON(t, e.Violations()); got != before {
		t.Error("rejected batches must not change the maintained set")
	}
	if e.Seq() != 0 {
		t.Errorf("rejected batches must not advance seq: %d", e.Seq())
	}
	if tbl.NumRows() != 5 {
		t.Errorf("rejected batches must not mutate the table: %d rows", tbl.NumRows())
	}
}

func TestEngineStale(t *testing.T) {
	tbl := streamTable()
	e, err := NewEngineFrom(tbl, streamRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetCell(0, 1, "GA") // outside the engine
	if !e.Stale() {
		t.Fatal("external mutation must mark the engine stale")
	}
	if _, err := e.Apply(Batch{UpdateCell(0, "state", "FL")}); err == nil {
		t.Error("stale engine must refuse deltas")
	}
}

func TestEngineSince(t *testing.T) {
	tbl := streamTable()
	rules := streamRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	// seq 1: add a dirty row. seq 2: fix it. seq 3: add another.
	if _, err := e.Apply(Batch{AppendRows([]string{"8509999999", "GA", "x"})}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Batch{UpdateCell(5, "state", "FL")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Batch{AppendRows([]string{"2129999999", "MA", "y"})}); err != nil {
		t.Fatal(err)
	}

	// Since 0 nets out the transient seq-1 violations entirely.
	diff, err := e.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Seq != 3 || diff.Reset {
		t.Fatalf("since(0) header = %+v", diff)
	}
	for _, v := range diff.Added {
		if v.Observed == "GA" || v.Expected == "GA" {
			t.Errorf("transient violation leaked into the net diff: %+v", v)
		}
	}
	if len(diff.Removed) != 0 {
		t.Errorf("nothing present at seq 0 was removed, got %d", len(diff.Removed))
	}

	// A current cursor yields an empty diff; future cursors are errors.
	diff, err = e.Since(3)
	if err != nil || len(diff.Added)+len(diff.Removed) != 0 {
		t.Errorf("since(current) = %+v, %v", diff, err)
	}
	if _, err := e.Since(4); err == nil {
		t.Error("future cursor should fail")
	}
	if _, err := e.Since(-1); err == nil {
		t.Error("negative cursor should fail")
	}

	// The merged diff applied to the seq-0 set must equal the current set.
	base := fullDetect(t, streamTable(), rules, 1)
	state := make(map[string]pfd.Violation, len(base))
	for _, v := range base {
		state[v.Key()] = v
	}
	full, err := e.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range full.Removed {
		delete(state, v.Key())
	}
	for _, v := range full.Added {
		state[v.Key()] = v
	}
	merged := make([]pfd.Violation, 0, len(state))
	for _, v := range state {
		merged = append(merged, v)
	}
	detect.SortViolations(merged)
	if mustJSON(t, merged) != mustJSON(t, e.Violations()) {
		t.Error("replaying the net diff over the seq-0 state does not reproduce the current set")
	}
}

func TestEngineSinceReset(t *testing.T) {
	tbl := streamTable()
	e, err := NewEngineOpts(tbl, streamRules(), EngineOptions{LogCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Apply(Batch{AppendRows([]string{"2125550000", "NY", "n"})}); err != nil {
			t.Fatal(err)
		}
	}
	diff, err := e.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Reset {
		t.Fatal("cursor older than the retained log must reset")
	}
	if mustJSON(t, diff.Added) != mustJSON(t, e.Violations()) {
		t.Error("reset diff must carry the full current set")
	}
	// A cursor within the retained horizon still merges incrementally.
	diff, err = e.Since(4)
	if err != nil || diff.Reset {
		t.Errorf("since(4) = %+v, %v", diff, err)
	}
}

func TestEngineStats(t *testing.T) {
	tbl := streamTable()
	e, err := NewEngineFrom(tbl, streamRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// IndexedColumns counts dictionary-coded views: the rule's LHS and
	// RHS columns.
	if st.Rows != 5 || st.Rules != 1 || st.IndexedColumns != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Blocks == 0 {
		t.Error("variable rule should track at least one block")
	}
	if st.Violations != len(e.Violations()) {
		t.Errorf("stats violations %d != %d", st.Violations, len(e.Violations()))
	}
}

func TestEngineNormalizesCRLFCells(t *testing.T) {
	tbl := streamTable()
	rules := streamRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Batch{
		AppendRows([]string{"8501112222", "FL", "a\r\r\nb"}),
		UpdateCell(0, "note", "x\r\ny"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Cell(5, 2); got != "a\nb" {
		t.Errorf("appended cell = %q, want CRLF-normalized %q", got, "a\nb")
	}
	if got := tbl.Cell(0, 2); got != "x\ny" {
		t.Errorf("updated cell = %q, want %q", got, "x\ny")
	}
	assertMaintained(t, e, tbl, rules)
}

func TestNewEngineFromContinuesSequence(t *testing.T) {
	tbl := streamTable()
	e, err := NewEngineFrom(tbl, streamRules(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq() != 7 {
		t.Fatalf("seq = %d, want 7", e.Seq())
	}
	// An old cursor inside the continued timeline resolves to a reset
	// snapshot (the fresh engine has no log), not an error.
	diff, err := e.Since(3)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Reset || diff.Seq != 7 {
		t.Errorf("since(3) = %+v, want reset at seq 7", diff)
	}
	if _, err := e.Since(8); err == nil {
		t.Error("cursor past the continued seq should still fail")
	}
}
