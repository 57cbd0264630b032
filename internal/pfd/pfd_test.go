package pfd

import (
	"encoding/json"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// paperD1 is Table 1 of the paper (Name table), with r4 dirty.
func paperD1() *table.Table {
	t := table.MustNew("Name", []string{"name", "gender"})
	t.MustAppend("John Charles", "M")
	t.MustAppend("John Bosco", "M")
	t.MustAppend("Susan Orlean", "F")
	t.MustAppend("Susan Boyle", "M") // erroneous: should be F
	return t
}

// paperD2 is Table 2 of the paper (Zip table), with s4 dirty.
func paperD2() *table.Table {
	t := table.MustNew("Zip", []string{"zip", "city"})
	t.MustAppend("90001", "Los Angeles")
	t.MustAppend("90002", "Los Angeles")
	t.MustAppend("90003", "Los Angeles")
	t.MustAppend("90004", "New York") // erroneous: should be Los Angeles
	return t
}

func lambda2() *PFD {
	tp := tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<Susan\ >\A*`),
		RHS: "F",
	})
	return New("Name", "name", "gender", tp)
}

func lambda3() *PFD {
	tp := tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<900>\D{2}`),
		RHS: "Los Angeles",
	})
	return New("Zip", "zip", "city", tp)
}

func lambda4() *PFD {
	tp := tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<\LU\LL*\ >\A*`),
		RHS: tableau.Wildcard,
	})
	return New("Name", "name", "gender", tp)
}

func lambda5() *PFD {
	tp := tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<\D{3}>\D{2}`),
		RHS: tableau.Wildcard,
	})
	return New("Zip", "zip", "city", tp)
}

// TestPaperRunningExample reproduces Section 1 end to end: λ2 catches
// r4[gender], λ3 catches s4[city], λ4 catches r4 via the (r3, r4) pair,
// λ5 catches s4 by pairing with s1–s3.
func TestPaperRunningExample(t *testing.T) {
	d1, d2 := paperD1(), paperD2()

	vs, err := lambda2().Check(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Tuples[0] != 3 || vs[0].Observed != "M" || vs[0].Expected != "F" {
		t.Fatalf("λ2 violations = %+v", vs)
	}
	if len(vs[0].Cells) != 2 {
		t.Errorf("constant violation should have 2 cells, got %d", len(vs[0].Cells))
	}

	vs, err = lambda3().Check(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Tuples[0] != 3 || vs[0].Observed != "New York" {
		t.Fatalf("λ3 violations = %+v", vs)
	}

	vs, err = lambda4().Check(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("λ4 violations = %+v", vs)
	}
	if !vs[0].Variable || len(vs[0].Cells) != 4 {
		t.Errorf("λ4 violation should be a four-cell pair violation: %+v", vs[0])
	}
	if vs[0].Tuples[0] != 2 || vs[0].Tuples[1] != 3 {
		t.Errorf("λ4 should pair r3 and r4, got %v", vs[0].Tuples)
	}

	vs, err = lambda5().Check(d2)
	if err != nil {
		t.Fatal(err)
	}
	// s4 conflicts with each of s1, s2, s3.
	if len(vs) != 3 {
		t.Fatalf("λ5 should produce 3 pair violations, got %d", len(vs))
	}
	for _, v := range vs {
		if v.Tuples[1] != 3 {
			t.Errorf("every λ5 pair should involve s4: %v", v.Tuples)
		}
	}
}

func TestSatisfiedBy(t *testing.T) {
	clean := table.MustNew("Zip", []string{"zip", "city"})
	clean.MustAppend("90001", "Los Angeles")
	clean.MustAppend("90002", "Los Angeles")
	ok, err := lambda3().SatisfiedBy(clean)
	if err != nil || !ok {
		t.Errorf("clean table should satisfy λ3: %v %v", ok, err)
	}
	ok, err = lambda3().SatisfiedBy(paperD2())
	if err != nil || ok {
		t.Errorf("dirty table should violate λ3")
	}
}

func TestCheckMissingColumn(t *testing.T) {
	other := table.MustNew("Other", []string{"x", "y"})
	if _, err := lambda3().Check(other); err == nil {
		t.Error("missing columns should error")
	}
}

func TestViolationKeyStable(t *testing.T) {
	v1 := Violation{PFDID: "a", Row: "r", Cells: []table.CellRef{{Row: 1, Column: "c"}}}
	v2 := Violation{PFDID: "a", Row: "r", Cells: []table.CellRef{{Row: 1, Column: "c"}}}
	if v1.Key() != v2.Key() {
		t.Error("equal violations should share a key")
	}
	v3 := Violation{PFDID: "a", Row: "r", Cells: []table.CellRef{{Row: 2, Column: "c"}}}
	if v1.Key() == v3.Key() {
		t.Error("different cells should differ")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := lambda4()
	p.Coverage = 0.75
	p.Source = "discovered"
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back PFD
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Table != "Name" || back.LHS != "name" || back.RHS != "gender" {
		t.Errorf("header lost: %+v", back)
	}
	if back.Coverage != 0.75 || back.Source != "discovered" {
		t.Errorf("metadata lost: %+v", back)
	}
	if back.Tableau.Len() != 1 {
		t.Fatalf("tableau lost: %d rows", back.Tableau.Len())
	}
	r := back.Tableau.Rows()[0]
	if r.LHS.String() != `<\LU\LL*\ >\A*` || !r.Variable() {
		t.Errorf("row lost: %s → %s", r.LHS, r.RHS)
	}
	// Semantics survive: the deserialized PFD still catches r4.
	vs, err := back.Check(paperD1())
	if err != nil || len(vs) != 1 {
		t.Errorf("deserialized PFD broken: %v %v", vs, err)
	}
}

func TestUnmarshalBadPattern(t *testing.T) {
	bad := `{"table":"t","lhs":"a","rhs":"b","tableau":[{"lhs":"<\\L","rhs":"x"}]}`
	var p PFD
	if err := json.Unmarshal([]byte(bad), &p); err == nil {
		t.Error("bad pattern should fail to parse")
	}
}

func TestVariableViolationOrdering(t *testing.T) {
	p := lambda5()
	row := p.Tableau.Rows()[0]
	src := SourceOf(p, row)
	v := src.Pair(5, 2, "X", "Y")
	if v.Tuples[0] != 2 || v.Tuples[1] != 5 {
		t.Errorf("tuples should be ordered: %v", v.Tuples)
	}
	if v.Expected != "Y" || v.Observed != "X" {
		t.Errorf("values should follow the swap: %+v", v)
	}
}

func TestIDAndString(t *testing.T) {
	p := lambda3()
	if p.ID() != "Zip:zip->city" {
		t.Errorf("ID = %q", p.ID())
	}
	if s := p.String(); s == "" {
		t.Error("String empty")
	}
}
