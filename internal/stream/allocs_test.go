package stream

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// maxPointAllocs bounds the heap allocations of one single-op batch that
// changes no violation, reading the sorted set back included, whatever
// the table size: the copied record, the extraction closure, the span and
// the Diff — nothing per block member and nothing per maintained
// violation. Rebuilding the touched block and re-sorting the violation
// set per batch measured 1 349 on the 50 000-row table and grew with it.
const (
	maxPointAllocs = 40
	maxPointGrowth = 1.25 // 50 000-row figure over the 5 000-row figure
	// An update's bound is one higher per updated cell: table.SetCell
	// replaces the row it touches with an updated copy instead of writing
	// into it, so that a frozen table.View (the checkpoint a background
	// goroutine is still encoding) can share rows with the live table.
	maxUpdateAllocs = maxPointAllocs + 1
	// A delete renumbers the rows behind it, and with them every
	// maintained violation, which it renders again: this many allocations
	// per violation on top of the point bound, on any table size. The
	// term goes when tuples get stable IDs (ROADMAP, "deletes without
	// renumbering"); until then the arm keeps it from growing.
	maxDeleteAllocsPerViolation = 4
)

// TestPointDeltaAllocs is the allocation gate of the O(change) delta
// path on the serving benchmark's stream_point shape: a uniform
// phone→state table (20 block keys, 0.5 % dirty rows), one constant
// tableau row per area code beside the variable row, and single-op
// batches — an appended clean row, which joins its block's majority
// group, an RHS update of a row alone in its block, which moves the
// block's only group, and the delete of the table's first row, which
// renumbers every row and violation behind it.
func TestPointDeltaAllocs(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("50k-row table; the race detector's own allocations void the bound")
	}
	measure := func(rows int) (appendAllocs, updateAllocs, deleteAllocsPerViolation float64) {
		tbl := datagen.PhoneState(rows, 0.005, 2019).Table
		tbl.MustAppend("9995550000", "AK") // no other 999 number: a block of one
		lone := tbl.NumRows() - 1
		eng, err := NewEngineFrom(tbl, pointRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 200
		var batches []Batch // built ahead: rendering a row allocates
		for i := 0; i <= runs; i++ {
			batches = append(batches,
				Batch{AppendRows([]string{fmt.Sprintf("850%07d", i), "FL"})},
				Batch{UpdateCell(lone, "state", []string{"AL", "AK"}[i%2])})
		}
		apply := func(b Batch) {
			diff, err := eng.ApplyCtx(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			if len(diff.Added)+len(diff.Removed) != 0 {
				t.Fatalf("batch %+v changed the violation set", b)
			}
			if len(eng.Violations()) == 0 { // a session reads the set back after every batch
				t.Fatal("violation set lost")
			}
		}
		next := 0
		appendAllocs = testing.AllocsPerRun(runs, func() { apply(batches[next]); next += 2 })
		next = 1
		updateAllocs = testing.AllocsPerRun(runs, func() { apply(batches[next]); next += 2 })
		deleteAllocs := testing.AllocsPerRun(runs/4, func() {
			if _, err := eng.ApplyCtx(context.Background(), Batch{DeleteRows(0)}); err != nil {
				t.Fatal(err)
			}
		})
		return appendAllocs, updateAllocs, (deleteAllocs - maxPointAllocs) / float64(len(eng.Violations()))
	}
	smallAppend, smallUpdate, smallDelete := measure(5_000)
	largeAppend, largeUpdate, largeDelete := measure(50_000)
	t.Logf("allocs per batch: append %.0f → %.0f, update %.0f → %.0f, delete beyond %d per violation %.2f → %.2f (5k → 50k rows)",
		smallAppend, largeAppend, smallUpdate, largeUpdate, maxPointAllocs, smallDelete, largeDelete)
	for _, c := range []struct {
		op           string
		small, large float64
		bound        float64
	}{
		{"append", smallAppend, largeAppend, maxPointAllocs},
		{"update", smallUpdate, largeUpdate, maxUpdateAllocs},
		{"delete, per violation", smallDelete, largeDelete, maxDeleteAllocsPerViolation},
	} {
		if c.large > c.bound {
			t.Errorf("%s: %.2f allocs per batch on 50k rows, bound %.0f", c.op, c.large, c.bound)
		}
		if c.large > maxPointGrowth*c.small {
			t.Errorf("%s: %.2f allocs per batch on 50k rows against %.2f on 5k: the cost grows with the table", c.op, c.large, c.small)
		}
	}
}

// pointRules is the rule shape discovery mines from the phone table: the
// variable row over the area code plus constant rows for area codes.
func pointRules() []*pfd.PFD {
	rows := []tableau.Row{{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard}}
	for _, a := range []struct{ area, state string }{
		{"850", "FL"}, {"607", "NY"}, {"404", "GA"}, {"217", "IL"}, {"860", "CT"},
	} {
		rows = append(rows, tableau.Row{LHS: pattern.MustParseConstrained(`<` + a.area + `>\D{7}`), RHS: a.state})
	}
	return []*pfd.PFD{pfd.New("d1_phone_state", "phone", "state", tableau.New(rows...))}
}

// maxBootBytes bounds the bytes one Boot allocates, on a fresh detector,
// over the stream_point table with its mined rules: the blocks of the
// variable row and one anchored pass whose slot per dictionary ID the
// 20 constant rows share. Matching each constant row on its own into a
// dictionary-sized verdict vector, which the engine then kept, read
// ≈ 4.93 MB; this reads ≈ 4.16 MB.
const maxBootBytes = 4_500_000

// TestBootBytesPointTable is the allocation gate of a cold engine boot —
// what an upload's detection, the first delta and every restore pay —
// on the benchmark's stream_point table: 50 000 phone rows, 0.5 % dirty,
// seed 2019, and the rules discovery mines from it (phone → state: the
// variable row <\D{3}>\D{7} and 20 constant rows <ddd>\D{7}).
func TestBootBytesPointTable(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("50k-row table; the race detector's own allocations void the bound")
	}
	tbl, rules := pointMined(t)
	var before, after runtime.MemStats
	const runs = 3
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Boot(context.Background(), detect.New(tbl, detect.Options{}), rules, 0, EngineOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per boot (bound %d)", perBoot, maxBootBytes)
	if perBoot > maxBootBytes {
		t.Errorf("a boot allocates %d bytes, bound %d", perBoot, maxBootBytes)
	}
}

// pointMined returns the stream_point benchmark's table — datagen phone,
// 50 000 rows, 0.5 % errors, seed 2019 — and the rules discovery mines
// from it with the server's defaults.
func pointMined(tb testing.TB) (*table.Table, []*pfd.PFD) {
	tb.Helper()
	tbl := datagen.PhoneState(50_000, 0.005, 2019).Table
	res, err := discovery.Discover(context.Background(), tbl, nil, discovery.Default())
	if err != nil {
		tb.Fatal(err)
	}
	return tbl, res.PFDs
}
