package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
)

// buildShipping makes a table where neither origin nor dest alone
// determines the shipping zone, but the pair does: zone = f(origin region,
// dest region). The derived "route" column reduces the composite FD
// {origin, dest} → zone to the single-attribute engine: the region pair
// becomes a contiguous prefix of the route value ("US>EU7"), exactly the
// shape the Figure 2 key vocabulary mines. Figure 2 only mines single
// token/n-gram keys, so composite parts must be adjacent after
// derivation — the documented contract of Table.Derive.
func buildShipping(n int, dirty int, seed int64) (*table.Table, []int) {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"US", "EU", "AS"}
	zone := func(a, b string) string {
		if a == b {
			return "domestic"
		}
		if a == "AS" || b == "AS" {
			return "long-haul"
		}
		return "transatlantic"
	}
	t := table.MustNew("shipping", []string{"origin", "dest", "zone"})
	for i := 0; i < n; i++ {
		a := regions[rng.Intn(len(regions))]
		b := regions[rng.Intn(len(regions))]
		t.MustAppend(a, fmt.Sprintf("%s%d", b, rng.Intn(10)), zone(a, b))
	}
	zi, _ := t.ColIndex("zone")
	var injected []int
	for k := 0; k < dirty; k++ {
		r := rng.Intn(n)
		cur := t.Cell(r, zi)
		for _, z := range []string{"domestic", "long-haul", "transatlantic"} {
			if z != cur {
				t.SetCell(r, zi, z)
				injected = append(injected, r)
				break
			}
		}
	}
	if _, err := t.Derive("route", []string{"origin", "dest"}, ">"); err != nil {
		panic(err)
	}
	return t, injected
}

func TestCompositeDependencyViaDerivedColumn(t *testing.T) {
	tbl, injected := buildShipping(3000, 10, 31)
	res, err := Discover(context.Background(), tbl, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: no single source column should fully determine the zone.
	for _, p := range res.PFDs {
		if (p.LHS == "origin" || p.LHS == "dest") && p.RHS == "zone" && p.Coverage > 0.99 {
			// A rule family on origin alone cannot have high confidence;
			// any such PFD must have very few rules. Verify it cannot
			// catch the composite structure by checking rule count.
			if p.Tableau.Len() > 2 {
				t.Errorf("single-column %s→zone unexpectedly strong: %s", p.LHS, p.Tableau)
			}
		}
	}
	var route *pfd.PFD
	for _, p := range res.PFDs {
		if p.LHS == "route" && p.RHS == "zone" {
			route = p
		}
	}
	if route == nil {
		t.Fatal("no route→zone PFD mined from the derived column")
	}
	// Rules anchored on the region pair, e.g. <USA->\D{2}>EUR\A* or a
	// prefix of the concatenation; the key point is detection quality.
	vs, err := detect.New(tbl, detect.Options{}).Detect(route)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[int]bool{}
	for _, v := range vs {
		for _, tu := range v.Tuples {
			flagged[tu] = true
		}
	}
	caught := 0
	for _, r := range injected {
		if flagged[r] {
			caught++
		}
	}
	if caught < len(injected)*8/10 {
		t.Errorf("composite detection caught %d/%d injected errors; tableau:\n%s",
			caught, len(injected), route.Tableau)
	}
}
