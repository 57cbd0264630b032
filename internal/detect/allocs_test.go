package detect

import (
	"context"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/tableau"
)

// maxAllocsPerRow bounds full detection's heap allocations per table
// row. On this table every phone is distinct, and the interned columnar
// hot path allocates once per distinct LHS value (its memoized block
// key) plus the rendered violations: ~1.15. The string-keyed path it
// replaced measured 64, so any per-row allocation creeping back into the
// inner loops overshoots this at once. (The sharded bootstrap, which PR
// 7's record gate measured at 0.20, has its own gate in internal/shard.)
const maxAllocsPerRow = 1.25

// TestDetectAllocsPerRow is the allocation gate for the detection hot
// path: one constant and one variable tableau row over a 100k-row
// phone→state table with 0.5% injected errors.
func TestDetectAllocsPerRow(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("100k-row table; the race detector's own allocations void the bound")
	}
	const rows = 100_000
	tbl := datagen.PhoneState(rows, 0.005, 2019).Table
	rules := []*pfd.PFD{
		pfd.New(tbl.Name(), "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
	var violations int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := New(tbl, Options{}).DetectAllContext(context.Background(), rules, 1)
		if err != nil {
			t.Fatal(err)
		}
		violations = len(res.Violations)
	})
	if violations == 0 {
		t.Fatal("fixture produced no violations")
	}
	perRow := allocs / rows
	t.Logf("%.0f allocs over %d rows = %.3f allocs/row (%d violations)", allocs, rows, perRow, violations)
	if perRow > maxAllocsPerRow {
		t.Fatalf("%.3f allocs/row, bound %.2f", perRow, maxAllocsPerRow)
	}
}
