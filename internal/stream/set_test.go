package stream

import (
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
)

// TestSetMatchesModel runs seeded random batches of Ref, Unref and
// Replace over six keys with two renderings each, and checks the Set
// against a brute-force bag after every batch: the same number of held
// violations, and a Diff whose Added and Removed lists are, byte for
// byte, the sorted comparison of the bag's batch-start and final states.
func TestSetMatchesModel(t *testing.T) {
	const keys = 6
	vio := func(k int, obs string) pfd.Violation {
		return pfd.Violation{
			PFDID: "R", Row: `<\D>`, Cells: []table.CellRef{{Row: k, Column: "c"}},
			Tuples: []int{k}, Observed: obs, Expected: "x",
		}
	}
	draw := func(rng *rand.Rand) pfd.Violation {
		return vio(rng.Intn(keys), []string{"a", "b"}[rng.Intn(2)])
	}
	type held struct {
		n int
		v pfd.Violation
	}
	// Each named case must come up at least once over the run.
	seen := map[string]int{}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet[string]()
		model := map[string]held{}
		ref := func(v pfd.Violation) {
			h := model[v.Key()]
			if h.n > 0 {
				seen["key held twice"]++
				if !sameRendering(h.v, v) {
					seen["re-rendering under a held key"]++
				}
			}
			model[v.Key()] = held{h.n + 1, v}
		}
		for batch := 0; batch < 200; batch++ {
			before := make(map[string]pfd.Violation, len(model))
			for k, h := range model {
				before[k] = h.v
			}
			for op := rng.Intn(6) + 1; op > 0; op-- {
				switch p := rng.Intn(10); {
				case p < 5:
					v := draw(rng)
					s.Ref(v.Key(), v)
					ref(v)
				case p < 9:
					k := draw(rng).Key()
					s.Unref(k)
					switch h := model[k]; {
					case h.n == 0:
						seen["unref of an absent key"]++
					case h.n == 1:
						delete(model, k)
					default:
						model[k] = held{h.n - 1, h.v}
					}
				default:
					lists := make([][]pfd.Violation, rng.Intn(3))
					listed := map[string]bool{}
					for i := range lists {
						for j := rng.Intn(keys); j > 0; j-- {
							v := draw(rng)
							if listed[v.Key()] {
								seen["replace with duplicated lists"]++
							}
							listed[v.Key()] = true
							lists[i] = append(lists[i], v)
						}
					}
					s.Replace(pfd.Violation.Key, lists...)
					clear(model)
					for _, list := range lists {
						for _, v := range list {
							ref(v)
						}
					}
				}
			}

			if s.Len() != len(model) {
				t.Fatalf("seed %d batch %d: Len %d, model holds %d", seed, batch, s.Len(), len(model))
			}
			var want Diff
			for k, v := range before {
				if h, ok := model[k]; !ok || !sameRendering(v, h.v) {
					want.Removed = append(want.Removed, v)
				}
			}
			for k, h := range model {
				if v, ok := before[k]; !ok || !sameRendering(v, h.v) {
					want.Added = append(want.Added, h.v)
				}
			}
			detect.SortViolations(want.Added)
			detect.SortViolations(want.Removed)
			got := s.Diff(int64(batch), 0)
			if g, w := mustJSON(t, got.Added), mustJSON(t, want.Added); g != w {
				t.Fatalf("seed %d batch %d: Added\n got %s\nwant %s", seed, batch, g, w)
			}
			if g, w := mustJSON(t, got.Removed), mustJSON(t, want.Removed); g != w {
				t.Fatalf("seed %d batch %d: Removed\n got %s\nwant %s", seed, batch, g, w)
			}
		}
	}
	for _, c := range []string{"key held twice", "re-rendering under a held key", "unref of an absent key", "replace with duplicated lists"} {
		if seen[c] == 0 {
			t.Errorf("no batch exercised %s", c)
		}
	}
}
