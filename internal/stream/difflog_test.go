package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
)

// TestDiffLogSnapshotMatchesSortedSet drives the log's patched snapshot
// with exact diffs over sets of a couple of hundred violations — long unchanged
// runs between change points, whole-set rewrites, rendering changes under
// an unchanged key, changes at both ends — and holds it to the definition
// it replaces: the set copied out of a map and sorted. It also pins the
// sharing contract: an empty diff returns the very same slice, and no
// slice handed out is ever written again.
func TestDiffLogSnapshotMatchesSortedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Keys differ by tuple pair; several share a first cell, so the order
	// falls through to the key, where row 10 sorts before row 9.
	rule, row := &pfd.PFD{Table: "T", LHS: "a", RHS: "b"}, propRules()[0].Tableau.Rows()[1]
	draw := func(observed string) pfd.Violation {
		i := rng.Intn(40)
		return pfd.VariableViolation(rule, row, i, i+1+rng.Intn(120), "x", observed)
	}
	set := make(map[string]pfd.Violation)
	for len(set) < 200 {
		v := draw("y")
		set[v.Key()] = v
	}
	sorted := func() []pfd.Violation {
		out := make([]pfd.Violation, 0, len(set))
		for _, v := range set {
			out = append(out, v)
		}
		detect.SortViolations(out)
		return out
	}
	log := NewDiffLog(4, sorted())

	type held struct{ vs, copied []pfd.Violation }
	var handed []held
	deepCopy := func(vs []pfd.Violation) []pfd.Violation {
		out := slices.Clone(vs)
		for i := range out {
			out[i].Cells, out[i].Tuples = slices.Clone(out[i].Cells), slices.Clone(out[i].Tuples)
		}
		return out
	}
	for step := 0; step < 100; step++ {
		before := log.Snapshot()
		handed = append(handed, held{before, deepCopy(before)})
		d := &Diff{Seq: int64(step + 1)}
		removals, additions := rng.Intn(4), rng.Intn(4)
		switch step % 10 {
		case 3: // nothing changes
			removals, additions = 0, 0
		case 7: // most of the set goes and comes back, like a renumbering delete
			removals, additions = len(set)*3/4, len(set)*3/4
		}
		for _, v := range before {
			if removals == 0 {
				break
			}
			if rng.Intn(len(before)) < 2*removals {
				removals--
				d.Removed = append(d.Removed, v)
				delete(set, v.Key())
				if rng.Intn(3) == 0 { // same key, new bytes: in both lists
					v.Observed = "z"
					d.Added = append(d.Added, v)
					set[v.Key()] = v
				}
			}
		}
		for ; additions > 0; additions-- {
			v := draw("y")
			if _, ok := set[v.Key()]; !ok {
				d.Added = append(d.Added, v)
				set[v.Key()] = v
			}
		}
		detect.SortViolations(d.Added)
		detect.SortViolations(d.Removed)
		log.Append(d)

		after := log.Snapshot()
		if !reflect.DeepEqual(after, sorted()) {
			t.Fatalf("step %d (-%d +%d): patched snapshot diverged from the sorted set", step, len(d.Removed), len(d.Added))
		}
		if len(d.Added)+len(d.Removed) == 0 && (len(after) != len(before) || len(after) > 0 && &after[0] != &before[0]) {
			t.Fatalf("step %d: an empty diff replaced the snapshot slice", step)
		}
	}
	for step, h := range handed {
		if !reflect.DeepEqual(h.vs, h.copied) {
			t.Fatalf("the snapshot handed out before step %d was written by a later Append", step)
		}
	}
	if log.Len() != 4 {
		t.Fatalf("retained %d diffs, cap 4", log.Len())
	}
}
