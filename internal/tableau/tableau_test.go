package tableau

import (
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
)

func row(lhs, rhs string, support int) Row {
	return Row{LHS: pattern.MustParseConstrained(lhs), RHS: rhs, Support: support}
}

func TestRowVariable(t *testing.T) {
	r := row(`<900>\D{2}`, "Los Angeles", 3)
	if r.Variable() {
		t.Error("constant row misreported")
	}
	v := row(`<\D{3}>\D{2}`, Wildcard, 0)
	if !v.Variable() {
		t.Error("wildcard row misreported")
	}
}

func TestRowString(t *testing.T) {
	r := row(`<850>\D{7}`, "FL", 1)
	if got := r.String(); got != `<850>\D{7} → FL` {
		t.Errorf("String = %q", got)
	}
}

func TestSplitRows(t *testing.T) {
	tp := New(
		row(`<900>\D{2}`, "Los Angeles", 4),
		row(`<\D{3}>\D{2}`, Wildcard, 0),
		row(`<606>\D{2}`, "Chicago", 2),
	)
	if tp.Len() != 3 || tp.Empty() {
		t.Fatalf("Len = %d", tp.Len())
	}
	if n := len(tp.ConstantRows()); n != 2 {
		t.Errorf("ConstantRows = %d", n)
	}
	if n := tp.Len() - len(tp.ConstantRows()); n != 1 {
		t.Errorf("variable rows = %d", n)
	}
}

func TestCoverage(t *testing.T) {
	tp := New(row(`<900>\D{2}`, "Los Angeles", 0))
	values := []string{"90001", "90002", "10001", "20001"}
	if got := tp.CoverageCounted(values, nil); got != 0.5 {
		t.Errorf("Coverage = %f", got)
	}
	if got := New().CoverageCounted(values, nil); got != 0 {
		t.Error("empty tableau should cover nothing")
	}
	if got := tp.CoverageCounted(nil, nil); got != 0 {
		t.Error("no values should cover nothing")
	}
}

// CoverageCounted over distinct values and their counts is its coverage of
// the expanded column with nil counts, to the last bit: both divide the
// same integers.
func TestCoverageCounted(t *testing.T) {
	tp := New(
		row(`<900>\D{2}`, "LA", 0),
		row(`<100>\D{2}`, "NY", 0),
	)
	values := []string{"90001", "10001", "55555", ""}
	counts := []int{3, 1, 2, 1}
	var expanded []string
	for i, v := range values {
		for n := 0; n < counts[i]; n++ {
			expanded = append(expanded, v)
		}
	}
	if got, want := tp.CoverageCounted(values, counts), tp.CoverageCounted(expanded, nil); got != want || got != 4.0/7.0 {
		t.Errorf("CoverageCounted = %v, coverage of the expanded column = %v, want 4/7", got, want)
	}
	if got := New().CoverageCounted(values, counts); got != 0 {
		t.Error("empty tableau should cover nothing")
	}
}

func TestCoverageMultipleRows(t *testing.T) {
	tp := New(
		row(`<900>\D{2}`, "LA", 0),
		row(`<100>\D{2}`, "NY", 0),
	)
	values := []string{"90001", "10001", "55555"}
	got := tp.CoverageCounted(values, nil)
	want := 2.0 / 3.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Coverage = %f, want %f", got, want)
	}
}

func TestSort(t *testing.T) {
	tp := New(
		row(`<b>\D`, "x", 1),
		row(`<a>\D`, "y", 5),
		row(`<c>\D`, "z", 5),
	)
	tp.Sort()
	rows := tp.Rows()
	if rows[0].Support != 5 || rows[1].Support != 5 || rows[2].Support != 1 {
		t.Fatalf("sort by support failed: %v", rows)
	}
	if !strings.HasPrefix(rows[0].LHS.String(), "<a>") {
		t.Errorf("tie should break on LHS: %s first", rows[0].LHS)
	}
}

func TestMinimizeConstantSubsumption(t *testing.T) {
	// <606>\D{2} → Chicago subsumes <6060>\D → Chicago.
	tp := New(
		row(`<6060>\D`, "Chicago", 2),
		row(`<606>\D{2}`, "Chicago", 5),
	)
	tp.Minimize()
	if tp.Len() != 1 {
		t.Fatalf("Minimize kept %d rows:\n%s", tp.Len(), tp)
	}
	if !strings.Contains(tp.Rows()[0].LHS.String(), "<606>") {
		t.Errorf("kept the wrong row: %s", tp.Rows()[0].LHS)
	}
}

func TestMinimizeKeepsDifferentRHS(t *testing.T) {
	tp := New(
		row(`<6060>\D`, "Chicago", 2),
		row(`<606>\D{2}`, "Evanston", 5),
	)
	tp.Minimize()
	if tp.Len() != 2 {
		t.Errorf("different RHS must both survive, kept %d", tp.Len())
	}
}

func TestMinimizeDropsExactDuplicates(t *testing.T) {
	tp := New(
		row(`<900>\D{2}`, "LA", 2),
		row(`<900>\D{2}`, "LA", 2),
	)
	tp.Minimize()
	if tp.Len() != 1 {
		t.Errorf("duplicate rows should collapse, kept %d", tp.Len())
	}
}

func TestMinimizeVariableRestriction(t *testing.T) {
	// Whole-value agreement is a restriction of prefix agreement; the
	// more general prefix row should survive.
	whole := Row{LHS: pattern.WholeValue(pattern.MustParse(`\D{5}`)), RHS: Wildcard}
	prefix := row(`<\D{3}>\D{2}`, Wildcard, 0)
	tp := New(whole, prefix)
	tp.Minimize()
	if tp.Len() != 1 {
		t.Fatalf("Minimize kept %d rows:\n%s", tp.Len(), tp)
	}
	if tp.Rows()[0].LHS.String() != `<\D{3}>\D{2}` {
		t.Errorf("kept %s, want the prefix row", tp.Rows()[0].LHS)
	}
}

func TestMinimizeMixedKindsUntouched(t *testing.T) {
	tp := New(
		row(`<900>\D{2}`, "LA", 0),
		row(`<\D{3}>\D{2}`, Wildcard, 0),
	)
	tp.Minimize()
	if tp.Len() != 2 {
		t.Errorf("constant and variable rows never subsume each other, kept %d", tp.Len())
	}
}

func TestStringRendering(t *testing.T) {
	tp := New(row(`<850>\D{7}`, "FL", 0), row(`<607>\D{7}`, "NY", 0))
	s := tp.String()
	if !strings.Contains(s, "850") || !strings.Contains(s, "NY") || !strings.Contains(s, "\n") {
		t.Errorf("String = %q", s)
	}
}

func TestAddAndRowsCopy(t *testing.T) {
	tp := New()
	tp.Add(row(`<a>\D`, "x", 0))
	rows := tp.Rows()
	rows[0].RHS = "mutated"
	if tp.Rows()[0].RHS != "x" {
		t.Error("Rows() leaked internal state")
	}
}
