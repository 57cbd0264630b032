package detect

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

func zipTable() *table.Table {
	t := table.MustNew("Zip", []string{"zip", "city"})
	t.MustAppend("90001", "Los Angeles")
	t.MustAppend("90002", "Los Angeles")
	t.MustAppend("90003", "Los Angeles")
	t.MustAppend("90004", "New York") // dirty
	return t
}

func constantPFD() *pfd.PFD {
	return pfd.New("Zip", "zip", "city", tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<900>\D{2}`),
		RHS: "Los Angeles",
	}))
}

func variablePFD() *pfd.PFD {
	return pfd.New("Zip", "zip", "city", tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<\D{3}>\D{2}`),
		RHS: tableau.Wildcard,
	}))
}

func TestConstantDetection(t *testing.T) {
	d := New(zipTable(), Options{})
	vs, err := d.Detect(constantPFD())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Tuples[0] != 3 {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestConstantDetectionIndexEqualsScan(t *testing.T) {
	tbl := zipTable()
	p := constantPFD()
	withIdx, err := New(tbl, Options{}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := New(tbl, Options{DisableIndex: true}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(withIdx), keys(noIdx)) {
		t.Errorf("index %v != scan %v", keys(withIdx), keys(noIdx))
	}
}

func TestVariableBlockedEqualsQuadratic(t *testing.T) {
	tbl := zipTable()
	p := variablePFD()
	blocked, err := New(tbl, Options{AllPairs: true}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := New(tbl, Options{DisableBlocking: true}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(blocked), keys(quad)) {
		t.Errorf("blocked %v != quadratic %v", keys(blocked), keys(quad))
	}
	if len(blocked) != 3 {
		t.Errorf("expected 3 pair violations, got %d", len(blocked))
	}
}

// Equivalence on a larger random table: blocking(AllPairs) == quadratic ==
// brute-force reference.
func TestEngineEquivalenceOnSynthetic(t *testing.T) {
	ds := datagen.ZipCity(300, 0.05, 11)
	p := pfd.New(ds.Table.Name(), "zip", "city", tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<\D{4}>\D`),
		RHS: tableau.Wildcard,
	}))
	blocked, err := New(ds.Table, Options{AllPairs: true}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := New(ds.Table, Options{DisableBlocking: true}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Check(ds.Table)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(blocked), keys(quad)) {
		t.Errorf("blocked != quadratic (%d vs %d)", len(blocked), len(quad))
	}
	if !reflect.DeepEqual(keys(quad), keysV(ref)) {
		t.Errorf("quadratic != reference (%d vs %d)", len(quad), len(ref))
	}
}

func TestDetectAllDedupes(t *testing.T) {
	tbl := zipTable()
	// The same PFD twice: violations must not double.
	p := constantPFD()
	res, err := New(tbl, Options{}).DetectAllContext(context.Background(), []*pfd.PFD{p, p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Errorf("DetectAllContext should dedupe, got %d", len(res.Violations))
	}
}

func TestDetectMissingColumn(t *testing.T) {
	other := table.MustNew("Other", []string{"a", "b"})
	if _, err := New(other, Options{}).Detect(constantPFD()); err == nil {
		t.Error("missing column should error")
	}
}

func TestRepairsConstant(t *testing.T) {
	tbl := zipTable()
	rs, err := New(tbl, Options{}).Repairs(constantPFD())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("repairs = %+v", rs)
	}
	r := rs[0]
	if r.Cell.Row != 3 || r.Cell.Column != "city" || r.Suggested != "Los Angeles" || r.Confidence != 1 {
		t.Errorf("repair = %+v", r)
	}
}

func TestRepairsVariableMajority(t *testing.T) {
	tbl := zipTable()
	rs, err := New(tbl, Options{}).Repairs(variablePFD())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("repairs = %+v", rs)
	}
	r := rs[0]
	if r.Cell.Row != 3 || r.Suggested != "Los Angeles" {
		t.Errorf("majority repair = %+v", r)
	}
	if r.Confidence != 0.75 {
		t.Errorf("confidence = %f", r.Confidence)
	}
}

func TestApplyRepairs(t *testing.T) {
	tbl := zipTable()
	d := New(tbl, Options{})
	rs, err := d.Repairs(constantPFD())
	if err != nil {
		t.Fatal(err)
	}
	n, err := Apply(tbl, rs)
	if err != nil || n != 1 {
		t.Fatalf("Apply = %d, %v", n, err)
	}
	ci, _ := tbl.ColIndex("city")
	if tbl.Cell(3, ci) != "Los Angeles" {
		t.Error("repair not applied")
	}
	// Re-detection is clean.
	vs, err := New(tbl, Options{}).Detect(constantPFD())
	if err != nil || len(vs) != 0 {
		t.Errorf("post-repair violations = %v", vs)
	}
}

func TestApplyRepairsBadColumn(t *testing.T) {
	tbl := zipTable()
	_, err := Apply(tbl, []Repair{{Cell: table.CellRef{Row: 0, Column: "nope"}}})
	if err == nil {
		t.Error("bad repair column should error")
	}
}

// Detection completeness & soundness on generated data: every injected
// categorical error that contradicts the generating rule is caught by the
// ground-truth PFD, and no clean row is flagged.
func TestDetectionCompletenessPhone(t *testing.T) {
	ds := datagen.PhoneState(1000, 0.01, 12)
	rows := tableauFromAreaCodes()
	p := pfd.New(ds.Table.Name(), "phone", "state", rows)
	vs, err := New(ds.Table, Options{}).Detect(p)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[int]bool{}
	for _, v := range vs {
		flagged[v.Tuples[0]] = true
	}
	injected := ds.InjectedRows()
	for r := range injected {
		if !flagged[r] {
			t.Errorf("injected error at row %d not detected", r)
		}
	}
	for r := range flagged {
		if !injected[r] {
			t.Errorf("clean row %d flagged", r)
		}
	}
}

// tableauFromAreaCodes builds the ground-truth constant tableau for the
// PhoneState generator (every area code it uses).
func tableauFromAreaCodes() *tableau.Tableau {
	codes := map[string]string{
		"850": "FL", "607": "NY", "404": "GA", "217": "IL", "860": "CT",
		"212": "NY", "213": "CA", "305": "FL", "312": "IL", "415": "CA",
		"512": "TX", "617": "MA", "702": "NV", "713": "TX", "206": "WA",
		"303": "CO", "602": "AZ", "503": "OR", "615": "TN", "504": "LA",
	}
	tp := tableau.New()
	for code, st := range codes {
		tp.Add(tableau.Row{
			LHS: pattern.PrefixKey(pattern.Literal(code), pattern.MustParse(`\D{7}`)),
			RHS: st,
		})
	}
	return tp
}

func keys(vs []pfd.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Key()
	}
	sort.Strings(out)
	return out
}

func keysV(vs []pfd.Violation) []string { return keys(vs) }
