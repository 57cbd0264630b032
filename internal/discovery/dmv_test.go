package discovery

import (
	"context"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/table"
)

// TestCleanDMVsKeepsPlaceholdersOutOfRules pollutes the zip column with
// the classic "99999" sentinel and the city column with "N/A". Without
// cleaning, the sentinel is frequent enough to mine a bogus
// 99999 → something rule; with CleanDMVs it disappears.
func TestCleanDMVsKeepsPlaceholdersOutOfRules(t *testing.T) {
	ds := datagen.ZipCity(2000, 0, 51)
	tbl := ds.Table
	zi, _ := tbl.ColIndex("zip")
	ci, _ := tbl.ColIndex("city")
	// Every 40th row becomes a placeholder pair.
	for r := 0; r < tbl.NumRows(); r += 40 {
		tbl.SetCell(r, zi, "99999")
		tbl.SetCell(r, ci, "N/A")
	}

	dirty := Default()
	resDirty, err := Discover(context.Background(), tbl, nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	clean := Default()
	clean.CleanDMVs = true
	resClean, err := Discover(context.Background(), tbl, nil, clean)
	if err != nil {
		t.Fatal(err)
	}

	bogus := func(res *Result) bool {
		for _, p := range res.PFDs {
			for _, row := range p.Tableau.Rows() {
				s := row.String()
				if strings.Contains(s, "99999") || strings.Contains(s, "N/A") {
					return true
				}
			}
		}
		return false
	}
	if !bogus(resDirty) {
		t.Skip("placeholder did not form a rule in the dirty run; cannot demonstrate the contrast")
	}
	if bogus(resClean) {
		t.Error("CleanDMVs left placeholder rules in the tableau")
	}
}

// TestEmptyRHSGivesNoEvidence: tuples with a missing RHS neither support
// nor violate rules.
func TestEmptyRHSGivesNoEvidence(t *testing.T) {
	tbl := table.MustNew("t", []string{"code", "cat"})
	for i := 0; i < 10; i++ {
		tbl.MustAppend("A1", "x")
	}
	for i := 0; i < 5; i++ {
		tbl.MustAppend("A1", "") // missing RHS must not dilute confidence
	}
	cfg := Default()
	cfg.MinSupport = 4
	res, err := Discover(context.Background(), tbl, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.PFDs {
		if p.LHS == "code" && p.RHS == "cat" {
			for _, row := range p.Tableau.Rows() {
				if row.RHS == "x" {
					found = true
				}
				if row.RHS == "" {
					t.Errorf("empty-RHS rule mined: %s", row)
				}
			}
		}
	}
	if !found {
		t.Error("A1 → x rule not mined despite 10 clean supporters")
	}
}
