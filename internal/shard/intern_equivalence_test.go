package shard

// Interning equivalence property test: detection over the dictionary-
// coded (interned) hot path must be byte-identical to the plain string
// paths on randomized tables — at parallelism 1 and 4, against the
// per-row string-matching ablation (DisableIndex), against the quadratic
// string-comparing reference (DisableBlocking, AllPairs), and through
// sharded coordinators at K ∈ {1, 4}. Values include empty strings, the
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
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

func TestInterningEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	junk := []string{"", "x\x1fy", "\x1f", "über", "85ab", "8"}
	rhsPool := []string{"A", "B", "C", "x\x1fy", ""}
	rules := []*pfd.PFD{
		pfd.New("R", "code", "val", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<85>\D{2}`), RHS: "A"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{2}>\D{2}`), RHS: tableau.Wildcard},
		)),
	}
	ctx := context.Background()

	for trial := 0; trial < 15; trial++ {
		tbl := table.MustNew("R", []string{"code", "val"})
		n := 10 + rng.Intn(50)
		for i := 0; i < n; i++ {
			var code string
			switch rng.Intn(8) {
			case 0:
				code = junk[rng.Intn(len(junk))]
			case 1:
				code = fmt.Sprintf("85%02d", rng.Intn(3)) // constant-row matches
			default:
				code = fmt.Sprintf("%02d%02d", 10+rng.Intn(3), rng.Intn(3)) // dense blocks
			}
			tbl.MustAppend(code, rhsPool[rng.Intn(len(rhsPool))])
		}

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
			c, err := NewFrom(tbl, rules, k, 0)
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
