package detect

// Regression tests for the two determinism bugs fixed alongside the
// interned hot path: the SortViolations comparator was not a strict weak
// order once cell-less violations entered the mix, and the cross-rule
// repair dedupe silently discarded conflicting suggestions.

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSortViolationsTotalOrder feeds every rotation (and its reversal) of
// a violation list mixing cell-less and cell-bearing entries through
// SortViolations and demands one identical output. The old comparator
// fell through to the key whenever either side lacked cells, which is
// inconsistent with the cell comparison — not a strict weak order — and
// an inconsistent comparator lets the sorted order depend on the input
// permutation.
func TestSortViolationsTotalOrder(t *testing.T) {
	cell := func(r int, c string) []table.CellRef { return []table.CellRef{{Row: r, Column: c}} }
	base := []pfd.Violation{
		{PFDID: "p1", Row: "r9"},
		{PFDID: "p1", Row: "r1", Cells: cell(0, "a")},
		{PFDID: "p0", Row: "r0"},
		{PFDID: "p1", Row: "r0", Cells: cell(0, "a")},
		{PFDID: "p2", Row: "r2"},
		{PFDID: "p1", Row: "r1", Cells: cell(1, "a")},
		{PFDID: "p1", Row: "r1", Cells: cell(0, "b")},
	}
	var want string
	for rot := 0; rot < len(base); rot++ {
		for _, reversed := range []bool{false, true} {
			in := make([]pfd.Violation, 0, len(base))
			in = append(in, base[rot:]...)
			in = append(in, base[:rot]...)
			if reversed {
				for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
					in[i], in[j] = in[j], in[i]
				}
			}
			SortViolations(in)
			got := asJSON(t, in)
			if want == "" {
				want = got
				// The cell-less tier must lead the order.
				for i, v := range in {
					if len(v.Cells) == 0 && i >= 3 {
						t.Fatalf("cell-less violation sorted at %d, after cell-bearing ones:\n%s", i, got)
					}
				}
				continue
			}
			if got != want {
				t.Fatalf("sort depends on input permutation (rot %d, reversed %v):\n got %s\nwant %s", rot, reversed, got, want)
			}
		}
	}
}

// TestRepairsAllConflicts pins the conflict-aware repair dedupe: two
// rules demanding different constants for the same cell must resolve to
// the lowest-indexed rule's suggestion, and the output must be identical
// at every parallelism.
func TestRepairsAllConflicts(t *testing.T) {
	tbl := table.MustNew("t", []string{"phone", "state"})
	tbl.MustAppend("8501234567", "ZZ")
	rules := []*pfd.PFD{
		pfd.New("t", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
		)),
		pfd.New("t", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<8>\D{9}`), RHS: "GA"},
		)),
	}
	d := New(tbl, Options{})
	out, err := d.RepairsAllContext(context.Background(), rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("want one merged repair, got %d: %s", len(out), asJSON(t, out))
	}
	if out[0].Suggested != "FL" {
		t.Fatalf("winner must come from the lowest rule index: got %q, want %q", out[0].Suggested, "FL")
	}
	for _, par := range []int{2, 4} {
		out2, err := New(tbl, Options{}).RepairsAllContext(context.Background(), rules, par)
		if err != nil {
			t.Fatal(err)
		}
		if asJSON(t, out2) != asJSON(t, out) {
			t.Fatalf("parallelism %d changed the merged repairs", par)
		}
	}
}
