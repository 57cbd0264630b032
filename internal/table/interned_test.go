package table

import (
	"bytes"
	"reflect"
	"testing"
)

// check verifies that the coded column and the row-wise readers agree
// cell by cell — the single invariant everything else rests on.
func check(t *testing.T, tab *Table, col int) {
	t.Helper()
	iv := tab.InternedColumn(col)
	if len(iv.IDs) != tab.NumRows() {
		t.Fatalf("interned column %d has %d ids, table has %d rows", col, len(iv.IDs), tab.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		if got, want := iv.Value(r), tab.Cell(r, col); got != want || tab.Row(r)[col] != want || tab.ColumnByIndex(col)[r] != want {
			t.Fatalf("row %d col %d: interned %q, table %q", r, col, got, want)
		}
	}
}

func TestInternedColumnMaintenance(t *testing.T) {
	tab := MustFromRows("t", []string{"a", "b"}, [][]string{
		{"x", "1"}, {"y", "2"}, {"x", "3"}, {"z", "1"},
	})
	iv := tab.InternedColumn(0)
	if same := tab.InternedColumn(0); same != iv {
		t.Fatalf("InternedColumn is not the column's one storage")
	}
	if iv.IDs[0] != iv.IDs[2] {
		t.Fatalf("equal cells coded differently")
	}
	checkAll := func() {
		t.Helper()
		for c := 0; c < tab.NumCols(); c++ {
			check(t, tab, c)
		}
	}
	checkAll()

	// A derived column is a column like any other, before and after the
	// mutations below.
	if _, err := tab.Derive("ab", []string{"a", "b"}, "|"); err != nil {
		t.Fatal(err)
	}
	dv := tab.InternedColumn(2)
	if got := dv.Value(2); got != "x|3" {
		t.Fatalf("derived cell = %q", got)
	}
	checkAll()

	tab.MustAppend("y", "9", "y|9")
	checkAll()

	// A view frozen mid-script keeps encoding the table as it was then.
	frozen := tab.EncodeBinaryBytes()
	view := tab.Freeze()

	// SetCell re-codes the touched cell only.
	tab.SetCell(1, 0, "w")
	tab.SetCell(1, 2, "a value the view's dictionary prefix does not hold")
	checkAll()

	// DeleteRows compacts positions but keeps IDs valid: the surviving
	// duplicate of "x" must still decode through the old dictionary ID.
	xID := iv.IDs[0]
	if _, err := tab.DeleteRows(0, 3); err != nil {
		t.Fatal(err)
	}
	checkAll()
	if iv.IDs[1] != xID { // rows now: w, x, y
		t.Fatalf("delete-compaction renumbered a surviving ID: %d != %d", iv.IDs[1], xID)
	}
	if got, want := iv.Dict.Value(xID), "x"; got != want {
		t.Fatalf("dictionary entry invalidated by delete: %q", got)
	}
	if dv.Value(1) != "x|3" || len(dv.IDs) != 3 {
		t.Fatalf("derived column not compacted with the others: %d ids, row 1 = %q", len(dv.IDs), dv.Value(1))
	}

	// The dictionary outlives the rows: "z" is still listed, with no row.
	zID, ok := iv.Dict.Lookup("z")
	if !ok || iv.Counts()[zID] != 0 {
		t.Fatalf("retired value: listed %v, counts %v", ok, iv.Counts())
	}
	if got, want := iv.Counts(), []int{1, 1, 0, 1}; !reflect.DeepEqual(got, want) { // x, y, z, w
		t.Fatalf("Counts = %v, want %v", got, want)
	}

	if got := view.AppendBinary(nil); !bytes.Equal(got, frozen) {
		t.Fatalf("the view frozen mid-script no longer encodes the table of that moment")
	}
	view.Release()
}
