package dmv

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// column is the one column of a table of the given values.
func column(values []string) *table.Interned {
	t := table.MustNew("t", []string{"c"})
	for _, v := range values {
		t.MustAppend(v)
	}
	return t.InternedColumn(0)
}

func TestIsPlaceholderSyntax(t *testing.T) {
	yes := []string{
		"N/A", "n/a", "NULL", "None", "unknown", "TBD", "-", "---",
		"?", "...", "xxx", "XXXX", "aaaa", "#####", "99999", "-999",
		"  ", "", "Not Available",
	}
	for _, v := range yes {
		if !IsPlaceholderSyntax(v) {
			t.Errorf("IsPlaceholderSyntax(%q) = false", v)
		}
	}
	no := []string{
		"Chicago", "90001", "John", "F-9-107", "ab", "x1", "0", "12",
		"Los Angeles", "M",
	}
	for _, v := range no {
		if IsPlaceholderSyntax(v) {
			t.Errorf("IsPlaceholderSyntax(%q) = true", v)
		}
	}
}

func zipColumnWithDMVs(n int, seed int64) ([]string, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	dmvs := map[string]bool{"N/A": true, "99999": true, "UNKNOWN": true}
	for i := 0; i < n; i++ {
		switch {
		case i%97 == 0:
			out = append(out, "N/A")
		case i%131 == 0:
			out = append(out, "UNKNOWN")
		case i%151 == 0:
			out = append(out, "99999")
		default:
			out = append(out, fmt.Sprintf("%05d", 10000+rng.Intn(80000)))
		}
	}
	return out, dmvs
}

func TestDetectFindsClassicDMVs(t *testing.T) {
	values, want := zipColumnWithDMVs(3000, 5)
	suspects := Detect(column(values), Options{})
	found := map[string]bool{}
	for _, s := range suspects {
		found[s.Value] = true
		if len(s.Rows) == 0 || s.Score <= 0 {
			t.Errorf("suspect %q has no rows/score", s.Value)
		}
	}
	for v := range want {
		if !found[v] {
			t.Errorf("DMV %q not detected; suspects: %v", v, suspects)
		}
	}
}

func TestDetectNoFalsePositivesOnCleanCategorical(t *testing.T) {
	// A clean 2-value gender column must not be flagged (the majority
	// class is not a spike in a low-cardinality column).
	var values []string
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			values = append(values, "F")
		} else {
			values = append(values, "M")
		}
	}
	if suspects := Detect(column(values), Options{}); len(suspects) != 0 {
		t.Errorf("clean categorical column flagged: %v", suspects)
	}
}

func TestDetectSpike(t *testing.T) {
	// High-cardinality column where one non-placeholder value dominates.
	var values []string
	for i := 0; i < 500; i++ {
		values = append(values, "DEFAULTCITY")
	}
	for i := 0; i < 40; i++ {
		values = append(values, fmt.Sprintf("City%02d", i))
	}
	suspects := Detect(column(values), Options{})
	found := false
	for _, s := range suspects {
		if s.Value == "DEFAULTCITY" && strings.Contains(s.Reason, "spike") {
			found = true
		}
	}
	if !found {
		t.Errorf("spike not detected: %v", suspects)
	}
}

func TestDetectSignatureOutlier(t *testing.T) {
	// A free-text sentinel that is NOT in the curated list ("SINZIP" is
	// made up) must still surface through the rare-signature channel in
	// an otherwise all-digit column.
	rng := rand.New(rand.NewSource(6))
	var values []string
	for i := 0; i < 2000; i++ {
		if i%400 == 0 {
			values = append(values, "SINZIP")
		} else {
			values = append(values, fmt.Sprintf("%05d", 10000+rng.Intn(80000)))
		}
	}
	suspects := Detect(column(values), Options{})
	sawOutlier := false
	for _, s := range suspects {
		if s.Value == "SINZIP" && strings.Contains(s.Reason, "signature outlier") {
			sawOutlier = true
		}
	}
	if !sawOutlier {
		t.Errorf("no signature outliers among %v", suspects)
	}
}

func TestDetectEmpty(t *testing.T) {
	if s := Detect(column(nil), Options{}); s != nil {
		t.Errorf("nil input suspects = %v", s)
	}
	if s := Detect(column([]string{"", "", ""}), Options{}); s != nil {
		t.Errorf("all-empty suspects = %v", s)
	}
}

func TestCleanColumn(t *testing.T) {
	values, want := zipColumnWithDMVs(2000, 7)
	c := column(values)
	cleaned, suspects := CleanColumn(c, Options{})
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	for i, id := range c.IDs {
		v := cleaned[id]
		if want[values[i]] && v != "" {
			t.Errorf("row %d: DMV %q not blanked", i, values[i])
		}
		if !want[values[i]] && v != values[i] {
			t.Errorf("row %d: clean value %q changed to %q", i, values[i], v)
		}
	}
	if c.Value(0) != "N/A" {
		t.Error("cleaning reached the column's own dictionary")
	}
	// No suspects → the dictionary's own list back.
	clean := column([]string{"90001", "90002"})
	got, s := CleanColumn(clean, Options{})
	if len(s) != 0 || &got[0] != &clean.Dict.Values()[0] {
		t.Error("clean column should pass through unchanged")
	}
}

// TestRetiredValueIsNoSuspect: a value the dictionary lists but no row
// holds any more is not in the column — not flagged by its syntax (it
// would be a suspect with no rows), not counted towards a signature's
// share, a spike's runner-up or the distinct-value floor.
func TestRetiredValueIsNoSuspect(t *testing.T) {
	rows := [][]string{{"N/A"}, {"UNKNOWN"}}
	for i := 0; i < 40; i++ {
		rows = append(rows, []string{fmt.Sprintf("%05d", 10000+i)})
	}
	live := table.MustFromRows("t", []string{"zip"}, rows)
	live.SetCell(0, 0, "10000") // "N/A" retires
	if _, err := live.DeleteRows(1); err != nil {
		t.Fatal(err) // so does "UNKNOWN"
	}
	if got := Detect(live.InternedColumn(0), Options{}); len(got) != 0 {
		t.Fatalf("suspects in a column of forty zips: %+v", got)
	}
	live.MustAppend("n/a")
	live.MustAppend("UNKNOWN") // back, in a later row
	fresh := table.MustFromRows("t", []string{"zip"}, [][]string{})
	for r := 0; r < live.NumRows(); r++ {
		fresh.MustAppend(live.Cell(r, 0))
	}
	got, want := Detect(live.InternedColumn(0), Options{}), Detect(fresh.InternedColumn(0), Options{})
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("long-lived column: %+v\nits rows: %+v", got, want)
	}
}

func TestSuspectsSortedByScore(t *testing.T) {
	values, _ := zipColumnWithDMVs(2000, 8)
	suspects := Detect(column(values), Options{})
	for i := 1; i < len(suspects); i++ {
		if suspects[i].Score > suspects[i-1].Score {
			t.Fatal("suspects not sorted by score")
		}
	}
}
