package shard

// Interning equivalence property test: detection over the dictionary-
// coded (interned) hot path must be byte-identical to the plain string
// paths on randomized tables — at parallelism 1 and 4, against the
// per-row string-matching ablation (DisableIndex), against the quadratic
// string-comparing reference (DisableBlocking, AllPairs), and through
// sharded coordinators at K ∈ {1, 4}; and an engine booted from a warm
// detector equals a cold one. Values include empty strings, the
// old block-key separator byte \x1f, and multi-byte runes, so any
// encoding shortcut in the interned path shows up as a divergence. The
// CI test job runs this under -race, which also exercises the
// singleflight caches from concurrent row tasks.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// internRules pairs a constant and a variable tableau row over the
// interning tables' two columns.
func internRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("R", "code", "val", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<85>\D{2}`), RHS: "A"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{2}`), RHS: tableau.Wildcard},
		)),
	}
}

// internRow draws one (code, val) row: junk codes (empty, the separator
// byte, multi-byte runes, too short), constant-row matches, or codes
// that fall into a few dense blocks.
func internRow(rng *rand.Rand) []string {
	junk := []string{"", "x\x1fy", "\x1f", "über", "85ab", "8"}
	rhsPool := []string{"A", "B", "C", "x\x1fy", ""}
	var code string
	switch rng.Intn(8) {
	case 0:
		code = junk[rng.Intn(len(junk))]
	case 1:
		code = fmt.Sprintf("85%02d", rng.Intn(3)) // constant-row matches
	default:
		code = fmt.Sprintf("%02d%02d", 10+rng.Intn(3), rng.Intn(3)) // dense blocks
	}
	return []string{code, rhsPool[rng.Intn(len(rhsPool))]}
}

// internTable draws a table of 10 to 59 internRow rows.
func internTable(rng *rand.Rand) *table.Table {
	tbl := table.MustNew("R", []string{"code", "val"})
	for n := 10 + rng.Intn(50); n > 0; n-- {
		tbl.MustAppend(internRow(rng)...)
	}
	return tbl
}

func TestInterningEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rules := internRules()
	ctx := context.Background()

	for trial := 0; trial < 15; trial++ {
		tbl := internTable(rng)

		want := mustJSON(t, fullDetect(t, tbl, rules, 1))
		for _, par := range []int{1, 4} {
			for _, opts := range []detect.Options{
				{},                   // interned fast path
				{DisableIndex: true}, // per-row string matching ablation
			} {
				res, err := detect.New(tbl, opts).DetectAllContext(ctx, rules, par)
				if err != nil {
					t.Fatal(err)
				}
				if got := mustJSON(t, res.Violations); got != want {
					t.Fatalf("trial %d: opts %+v par %d diverged:\n got %s\nwant %s", trial, opts, par, got, want)
				}
			}
		}

		// The full-cross-product rendering has its own string reference:
		// the quadratic pair check comparing raw cell values.
		allRef, err := detect.New(tbl, detect.Options{AllPairs: true}).DetectAllContext(ctx, rules, 1)
		if err != nil {
			t.Fatal(err)
		}
		quad, err := detect.New(tbl, detect.Options{AllPairs: true, DisableBlocking: true, DisableIndex: true}).DetectAllContext(ctx, rules, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a, q := mustJSON(t, allRef.Violations), mustJSON(t, quad.Violations); a != q {
			t.Fatalf("trial %d: interned blocking diverged from quadratic string reference:\n got %s\nwant %s", trial, a, q)
		}

		for _, k := range []int{1, 4} {
			c, err := NewWith(tbl, rules, k, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got := mustJSON(t, c.Violations())
			_ = c.Close()
			if got != want {
				t.Fatalf("trial %d: k=%d merged set diverged:\n got %s\nwant %s", trial, k, got, want)
			}
		}
	}
}

// TestWarmBootEqualsColdBoot: an engine booted from a detector whose
// caches a parallel DetectAllContext + RepairsAllContext already filled —
// a session's upload — equals, byte for byte, a cold boot
// (stream.NewEngineFrom), full detection and K ∈ {1, 4} coordinators, at
// boot and after every batch of a random delta script, on the interning
// tables.
func TestWarmBootEqualsColdBoot(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rules := internRules()
	ctx := context.Background()
	type applier interface {
		ApplyCtx(context.Context, stream.Batch) (*stream.Diff, error)
		Violations() []pfd.Violation
	}

	for trial := 0; trial < 10; trial++ {
		tbl := internTable(rng)
		det := detect.New(tbl, detect.Options{})
		if _, err := det.DetectAllContext(ctx, rules, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := det.RepairsAllContext(ctx, rules, 8); err != nil {
			t.Fatal(err)
		}
		warm, err := stream.Boot(ctx, det, rules, 0, stream.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Every other engine runs over a copy of its own.
		names := []string{"cold", "k1", "k4"}
		others := make([]applier, len(names))
		if others[0], err = stream.NewEngineFrom(tbl.Clone(), rules, 0); err != nil {
			t.Fatal(err)
		}
		for i, k := range []int{1, 4} {
			c, err := NewWith(tbl.Clone(), rules, k, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			others[i+1] = c
		}
		check := func(step int) {
			t.Helper()
			want := mustJSON(t, fullDetect(t, tbl, rules, 1))
			if got := mustJSON(t, warm.Violations()); got != want {
				t.Fatalf("trial %d step %d: warm boot diverged from full detection:\n got %s\nwant %s", trial, step, got, want)
			}
			for i, o := range others {
				if got := mustJSON(t, o.Violations()); got != want {
					t.Fatalf("trial %d step %d: %s diverged from the warm boot:\n got %s\nwant %s", trial, step, names[i], got, want)
				}
			}
		}
		check(-1)

		for step := 0; step < 25; step++ {
			var batch stream.Batch
			rows := tbl.NumRows()
			switch op := rng.Intn(3); {
			case op == 0 || rows < 2:
				batch = stream.Batch{stream.AppendRows(internRow(rng), internRow(rng))}
			case op == 1:
				batch = stream.Batch{stream.UpdateCell(rng.Intn(rows), tbl.Columns()[rng.Intn(2)], internRow(rng)[rng.Intn(2)])}
			default:
				batch = stream.Batch{stream.DeleteRows(rng.Intn(rows))}
			}
			wd, err := warm.ApplyCtx(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range others {
				d, err := o.ApplyCtx(ctx, batch)
				if err != nil {
					t.Fatalf("trial %d step %d: %s: %v", trial, step, names[i], err)
				}
				if mustJSON(t, d.Added) != mustJSON(t, wd.Added) || mustJSON(t, d.Removed) != mustJSON(t, wd.Removed) {
					t.Fatalf("trial %d step %d: %s diff diverged from the warm boot's", trial, step, names[i])
				}
			}
			check(step)
		}
	}
}
