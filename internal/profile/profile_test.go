package profile

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// column is the one column of a table of the given values.
func column(values ...string) *table.Interned {
	t := table.MustNew("t", []string{"c"})
	for _, v := range values {
		t.MustAppend(v)
	}
	return t.InternedColumn(0)
}

func TestColumnTypeInference(t *testing.T) {
	cases := []struct {
		name   string
		values []string
		want   ColType
	}{
		{"empty", []string{"", ""}, Empty},
		{"numeric", []string{"1", "23", "456", "7.5", "-2"}, Numeric},
		{"phone-code", []string{"8505467600", "6073771300", "4048481918"}, Code},
		{"zip-code", []string{"90001", "90002", "60601"}, Code},
		{"leading-zero", []string{"02101", "0210", "021"}, Code},
		{"gender", []string{"M", "F", "M", "F"}, Category},
		{"state", []string{"FL", "NY", "GA", "IL", "CT"}, Category},
		{"ids", []string{"F-9-107", "E-3-204", "H-1-003"}, Code},
		{"names", []string{"John Charles", "Susan Orlean", "John Bosco"}, Text},
	}
	for _, c := range cases {
		p := ProfileCoded(c.name, column(c.values...))
		if p.Type != c.want {
			t.Errorf("%s: type = %v, want %v", c.name, p.Type, c.want)
		}
	}
}

func TestColumnProfileStats(t *testing.T) {
	p := ProfileCoded("c", column("ab", "ab", "cdef", ""))
	if p.Rows != 4 || p.NonEmpty != 3 || p.Distinct != 2 {
		t.Errorf("stats: rows=%d nonempty=%d distinct=%d", p.Rows, p.NonEmpty, p.Distinct)
	}
	if p.MaxLen != 4 {
		t.Errorf("MaxLen = %d", p.MaxLen)
	}
	if p.AvgLen < 2.6 || p.AvgLen > 2.7 {
		t.Errorf("AvgLen = %f", p.AvgLen)
	}
	if len(p.TopValues) != 2 || p.TopValues[0].Value != "ab" || p.TopValues[0].Count != 2 {
		t.Errorf("TopValues = %v", p.TopValues)
	}
	if len(p.Signatures) == 0 {
		t.Error("signatures missing")
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{
		Empty: "empty", Numeric: "numeric", Code: "code", Text: "text", Category: "category",
	} {
		if ct.String() != want {
			t.Errorf("%v.String() = %q", ct, ct.String())
		}
	}
	if ColType(99).String() != "ColType(99)" {
		t.Error("unknown type String")
	}
}

func TestCandidatesPruning(t *testing.T) {
	tb := table.MustNew("t", []string{"phone", "state", "salary", "note"})
	rows := [][]string{
		{"8505467600", "FL", "100", "aaa bbb"},
		{"6073771300", "NY", "25000", "bbb ccc"},
		{"4048481918", "GA", "3", "ccc ddd"},
		{"2176163297", "IL", "47", "ddd eee"},
		{"8505467601", "FL", "88", "eee fff"},
		{"6073771301", "NY", "9", "fff ggg"},
	}
	for _, r := range rows {
		tb.MustAppend(r...)
	}
	tp := ProfileTable(tb)
	cands := Candidates(tp)
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c.String()] = true
		if c.LHS == "salary" || c.RHS == "salary" {
			t.Errorf("numeric column survived pruning: %s", c)
		}
	}
	if !seen["phone -> state"] {
		t.Errorf("phone -> state candidate missing; got %v", cands)
	}
	// note is all-distinct text: unusable as RHS.
	if seen["phone -> note"] {
		t.Error("all-distinct text column should not be an RHS")
	}
}

func TestCandidatesKeyRHSPruned(t *testing.T) {
	tb := table.MustNew("t", []string{"id", "cat"})
	tb.MustAppend("A-1", "x")
	tb.MustAppend("A-2", "x")
	tb.MustAppend("B-3", "y")
	tb.MustAppend("B-4", "y")
	tp := ProfileTable(tb)
	for _, c := range Candidates(tp) {
		if c.RHS == "id" {
			t.Errorf("key column as RHS should be pruned: %s", c)
		}
	}
}

func TestProfileTable(t *testing.T) {
	tb := table.MustNew("t", []string{"a", "b"})
	tb.MustAppend("1", "x")
	tp := ProfileTable(tb)
	if tp.Table != "t" || tp.Rows != 1 || len(tp.Columns) != 2 {
		t.Errorf("Profile = %+v", tp)
	}
}

func TestColumnPatterns(t *testing.T) {
	values := []string{"90001", "90002", "60601", "60603-6263", ""}
	ps := ColumnPatterns(column(values...))
	if len(ps) != 2 {
		t.Fatalf("patterns = %v", ps)
	}
	if ps[0].Pattern != `\D{5}` || ps[0].Frequency != 3 {
		t.Errorf("top pattern = %+v", ps[0])
	}
	if ps[1].Pattern != `\D{5}\S\D{4}` || ps[1].Frequency != 1 {
		t.Errorf("second pattern = %+v", ps[1])
	}
}

func TestTokenPatterns(t *testing.T) {
	values := []string{
		"Holloway, Donald E.",
		"Jones, Stacey R.",
		"Kimbell, David",
	}
	ps := TokenPatterns(column(values...))
	if len(ps) == 0 {
		t.Fatal("no token patterns")
	}
	// Last-name tokens at position 0: `\LU\LL{7}\S` etc. — all start
	// with an upper char; the comma is attached. First names at pos 1.
	sawPos0, sawPos1, sawInitial := false, false, false
	for _, p := range ps {
		switch {
		case p.Position == 0 && strings.HasPrefix(p.Pattern, `\LU`):
			sawPos0 = true
		case p.Position == 1 && strings.HasPrefix(p.Pattern, `\LU`):
			sawPos1 = true
		case p.Position == 2 && p.Pattern == `\LU\S`:
			sawInitial = true
		}
	}
	if !sawPos0 || !sawPos1 || !sawInitial {
		t.Errorf("token positions missing: pos0=%v pos1=%v initial=%v in %v",
			sawPos0, sawPos1, sawInitial, ps)
	}
	// Ordered by descending frequency.
	for i := 1; i < len(ps); i++ {
		if ps[i].Frequency > ps[i-1].Frequency {
			t.Fatal("not sorted by frequency")
		}
	}
}

func TestIsPlainNumber(t *testing.T) {
	yes := []string{"0", "42", "-7", "+3", "3.14", "-0.5"}
	for _, s := range yes {
		if !isPlainNumber(s) {
			t.Errorf("isPlainNumber(%q) = false", s)
		}
	}
	no := []string{"", "-", ".", "1.2.3", "1a", "a1"}
	for _, s := range no {
		if isPlainNumber(s) {
			t.Errorf("isPlainNumber(%q) = true", s)
		}
	}
}

// Per-value features are computed once per distinct value and weighted by
// its count: the profile of a column with repeats is the profile a
// row-by-row pass would compute.
func TestProfileCodedWeightsByCount(t *testing.T) {
	values := []string{"ab cd", "ab cd", "ab cd", "é", "", "xyz", "é", "q r s"}
	p := ProfileCoded("col", column(values...))
	if p.Rows != 8 || p.NonEmpty != 7 || p.Distinct != 4 {
		t.Errorf("rows/nonEmpty/distinct = %d/%d/%d", p.Rows, p.NonEmpty, p.Distinct)
	}
	// Tokens: 3×2 + 2×1 + 1 + 3 = 12; rune lengths: 3×5 + 2×1 + 3 + 5 = 25.
	if p.AvgTokens != 12.0/7.0 || p.AvgLen != 25.0/7.0 || p.MaxLen != 5 {
		t.Errorf("avgTokens %v avgLen %v maxLen %d", p.AvgTokens, p.AvgLen, p.MaxLen)
	}
	if p.Signatures[`\LL{2}\S\LL{2}`] != 3 || p.Signatures[`\S`] != 2 || p.Signatures[`\LL{3}`] != 1 || len(p.Signatures) != 4 {
		t.Errorf("signatures = %v", p.Signatures)
	}
	want := []ValueCount{{"ab cd", 3}, {"é", 2}, {"q r s", 1}, {"xyz", 1}}
	if !reflect.DeepEqual(p.TopValues, want) {
		t.Errorf("TopValues = %v, want %v", p.TopValues, want)
	}
	if p.Type != Text {
		t.Errorf("type = %v", p.Type)
	}
}

// TopValues keeps the ten most frequent values, ties by value, however
// many distinct values stream past.
func TestTopValuesBounded(t *testing.T) {
	var values []string
	for i := 0; i < 40; i++ {
		v := fmt.Sprintf("v%02d", i)
		for n := 0; n <= i%4; n++ {
			values = append(values, v)
		}
	}
	p := ProfileCoded("col", column(values...))
	if len(p.TopValues) != 10 {
		t.Fatalf("TopValues has %d entries", len(p.TopValues))
	}
	// Count 4 for v03, v07, …, v39 (ten values), in value order.
	for i, vc := range p.TopValues {
		if want := fmt.Sprintf("v%02d", 4*i+3); vc.Value != want || vc.Count != 4 {
			t.Errorf("TopValues[%d] = %v, want %s×4", i, vc, want)
		}
	}
	if empty := ProfileCoded("col", column("", "")); empty.TopValues == nil || len(empty.TopValues) != 0 {
		t.Errorf("empty column TopValues = %#v, want empty non-nil", empty.TopValues)
	}
}

// TestRetiredValuesAreNotProfiled: the dictionary of a long-lived column
// lists values no row holds any more, in the order the table first saw
// them; the profile and the pattern summaries are those of the rows.
func TestRetiredValuesAreNotProfiled(t *testing.T) {
	live := table.MustFromRows("t", []string{"c"}, [][]string{{"zz top"}, {"N/A"}, {"12"}, {"ab cd"}, {"12"}})
	live.SetCell(0, 0, "7")  // "zz top", the only two-token upper-less value, retires
	live.SetCell(1, 0, "ab") // so does the placeholder
	if _, err := live.DeleteRows(3); err != nil {
		t.Fatal(err)
	}
	live.MustAppend("ab cd") // retired by the delete, back in a later row
	fresh := table.MustFromRows("t", []string{"c"}, [][]string{{"7"}, {"ab"}, {"12"}, {"12"}, {"ab cd"}})
	if got, want := ProfileTable(live), ProfileTable(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("profile of the long-lived table\n %+v\nof its rows\n %+v", got, want)
	}
	lc, fc := live.InternedColumn(0), fresh.InternedColumn(0)
	if got, want := ColumnPatterns(lc), ColumnPatterns(fc); !reflect.DeepEqual(got, want) {
		t.Errorf("ColumnPatterns = %v, want %v", got, want)
	}
	if got, want := TokenPatterns(lc), TokenPatterns(fc); !reflect.DeepEqual(got, want) {
		t.Errorf("TokenPatterns = %v, want %v", got, want)
	}
}
