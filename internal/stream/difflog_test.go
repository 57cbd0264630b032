package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/race"
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
	src := pfd.SourceOf(&pfd.PFD{Table: "T", LHS: "a", RHS: "b"}, propRules()[0].Tableau.Rows()[1])
	draw := func(observed string) pfd.Violation {
		i := rng.Intn(40)
		return src.Pair(i, i+1+rng.Intn(120), "x", observed)
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

// referenceMerge is the definition Merge is held to: every retained diff
// after the cursor folded into a map by violation key, in log order and
// removals first within a diff, then the net lists sorted.
func referenceMerge(l *DiffLog, cursor, curSeq int64, rows int) *Diff {
	out := &Diff{Seq: curSeq, Rows: rows}
	if cursor == curSeq {
		return out
	}
	if len(l.entries) == 0 || l.entries[0].Seq > cursor+1 {
		out.Reset = true
		out.Added = l.snap
		return out
	}
	type pend struct {
		removed, added *pfd.Violation
	}
	net := make(map[string]*pend)
	at := func(k string) *pend {
		p := net[k]
		if p == nil {
			p = &pend{}
			net[k] = p
		}
		return p
	}
	for _, dl := range l.entries {
		if dl.Seq <= cursor {
			continue
		}
		for i := range dl.Removed {
			v := dl.Removed[i]
			p := at(v.Key())
			if p.added != nil {
				p.added = nil
			} else if p.removed == nil {
				p.removed = &v
			}
		}
		for i := range dl.Added {
			v := dl.Added[i]
			at(v.Key()).added = &v
		}
	}
	for _, p := range net {
		switch {
		case p.added != nil && p.removed == nil:
			out.Added = append(out.Added, *p.added)
		case p.removed != nil && p.added == nil:
			out.Removed = append(out.Removed, *p.removed)
		case p.added != nil && p.removed != nil:
			if !sameRendering(*p.added, *p.removed) {
				out.Added = append(out.Added, *p.added)
				out.Removed = append(out.Removed, *p.removed)
			}
		}
	}
	detect.SortViolations(out.Added)
	detect.SortViolations(out.Removed)
	return out
}

// randomDiff draws one exact diff against set over a key space of keys
// pairs and applies it to set: removals, re-renderings under a kept key
// (in both lists), and additions — of fresh keys and of keys an earlier
// diff removed, in the same or another rendering.
func randomDiff(rng *rand.Rand, set map[string]pfd.Violation, seq int64, keys int) *Diff {
	src := pfd.SourceOf(&pfd.PFD{Table: "T", LHS: "a", RHS: "b"}, propRules()[0].Tableau.Rows()[1])
	renderings := []string{"y", "z", "w"}
	d := &Diff{Seq: seq}
	var held []string
	for k := range set {
		held = append(held, k)
	}
	slices.Sort(held) // map order would make the draw irreproducible
	for _, k := range held {
		v := set[k]
		switch rng.Intn(8) {
		case 0: // removed
			d.Removed = append(d.Removed, v)
			delete(set, k)
		case 1: // re-rendered
			d.Removed = append(d.Removed, v)
			for o := v.Observed; v.Observed == o; {
				v.Observed = renderings[rng.Intn(len(renderings))]
			}
			d.Added = append(d.Added, v)
			set[k] = v
		}
	}
	for n := rng.Intn(keys / 4); n > 0; n-- {
		i := rng.Intn(keys)
		v := src.Pair(i%7, i+1, "x", renderings[rng.Intn(len(renderings))])
		if _, ok := set[v.Key()]; !ok && !slices.ContainsFunc(d.Removed, func(r pfd.Violation) bool { return r.Key() == v.Key() }) {
			d.Added = append(d.Added, v)
			set[v.Key()] = v
		}
	}
	detect.SortViolations(d.Added)
	detect.SortViolations(d.Removed)
	return d
}

// TestMergeMatchesReference holds the k-way Merge to the map fold it
// replaced over random diff logs, from every cursor — inside the
// retained log, at its horizon, behind it and at the current sequence.
func TestMergeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := make(map[string]pfd.Violation)
		for len(set) < 20 {
			randomDiff(rng, set, 0, 60)
		}
		var start []pfd.Violation
		for _, v := range set {
			start = append(start, v)
		}
		detect.SortViolations(start)
		log := NewDiffLog(1+rng.Intn(8), start)
		for seq := int64(1); seq <= 30; seq++ {
			log.Append(randomDiff(rng, set, seq, 60))
			for cursor := int64(0); cursor <= seq; cursor++ {
				got, err := log.Merge(cursor, seq, 99)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceMerge(log, cursor, seq, 99); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, seq %d, cursor %d: Merge = %+v, reference %+v", seed, seq, cursor, got, want)
				}
			}
		}
	}
}

// sinceLog is a log retaining 4 diffs of 200 changes each over a set of
// 200: removals, additions, re-renderings under a kept key, and
// additions removed again — 200 net removals and 200 net additions from
// cursor 0.
func sinceLog() *DiffLog {
	src := pfd.SourceOf(&pfd.PFD{Table: "T", LHS: "a", RHS: "b"}, propRules()[0].Tableau.Rows()[1])
	vs := make([]pfd.Violation, 500)
	for i := range vs {
		vs[i] = src.Pair(i, i+1, "x", "y")
	}
	detect.SortViolations(vs)
	rerendered := slices.Clone(vs[100:200])
	for i := range rerendered {
		rerendered[i].Observed = "z"
	}
	log := NewDiffLog(4, slices.Clone(vs[:200]))
	for i, d := range []*Diff{
		{Removed: vs[:100], Added: vs[200:300]},
		{Removed: vs[100:200], Added: rerendered},
		{Removed: vs[200:300], Added: vs[300:400]},
		{Removed: rerendered, Added: vs[400:]},
	} {
		d.Seq = int64(i + 1)
		log.Append(d)
	}
	return log
}

// TestSinceAllocs gates Merge's allocations: a Since over 4 retained
// diffs of 200 changes each costs the Diff, the heap and the two net
// lists — nothing per violation, where the map fold paid a key string
// and a map entry for each.
func TestSinceAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations void the bound")
	}
	log := sinceLog()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := log.Merge(0, 4, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Since over 800 changes: %.0f allocations, want ≤ 4", allocs)
	}
}
