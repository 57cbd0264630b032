package table

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"github.com/anmat/anmat/internal/race"
)

func viewFixture(rows int) *Table {
	tbl := MustNew("phones", []string{"phone", "state"})
	for i := 0; i < rows; i++ {
		tbl.MustAppend(strconv.Itoa(8500000000+i), []string{"FL", "NY", "CA"}[i%3])
	}
	return tbl
}

// TestViewEncodesTheFreezeUnderMutation (run it under -race): a frozen
// view is encoded on one goroutine, twice, while the live table takes
// SetCell, Append and DeleteRows on another; both encodings must be the
// bytes EncodeBinaryBytes gave at the freeze, and the table must come out
// of it as if no view had existed.
func TestViewEncodesTheFreezeUnderMutation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tbl, twin := viewFixture(500), viewFixture(500)
		tbl.InternedColumn(1) // a maintained coded view rides along
		want := tbl.EncodeBinaryBytes()
		view := tbl.Freeze()
		got := make(chan []byte, 2) // buffered: both encodes run while the table changes
		go func() {
			got <- view.AppendBinary(nil)
			got <- view.AppendBinary([]byte("behind a header"))
		}()
		for i := 0; i < 300; i++ {
			for _, x := range []*Table{tbl, twin} {
				r := rand.New(rand.NewSource(seed<<20 + int64(i))) // the same op for both
				switch n := x.NumRows(); r.Intn(4) {
				case 0:
					x.MustAppend(strconv.Itoa(r.Int()), "TX")
				case 1:
					if _, err := x.DeleteRows(r.Intn(n), r.Intn(n)); err != nil {
						t.Fatal(err)
					}
				default:
					x.SetCell(r.Intn(n), r.Intn(2), strconv.Itoa(r.Int()))
				}
			}
		}
		if b := <-got; !bytes.Equal(b, want) {
			t.Fatalf("seed %d: the view encodes to %d bytes that are not the %d the table had at the freeze", seed, len(b), len(want))
		}
		if b := <-got; !bytes.Equal(b[len("behind a header"):], want) || string(b[:len("behind a header")]) != "behind a header" {
			t.Fatalf("seed %d: appended behind a prefix, the encoding differs", seed)
		}
		if a, b := tbl.EncodeBinaryBytes(), twin.EncodeBinaryBytes(); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: the frozen table diverged from its never-frozen twin", seed)
		}
		check(t, tbl, 1)
	}
}

// TestViewLeavesDeriveCloneAndReleaseAlone: Derive widens the table's
// schema past what a view holds, a Clone shares nothing with either, and
// a released view's ID buffers are what the next Freeze copies into —
// even when Release races the table's own mutations (-race).
func TestViewLeavesDeriveCloneAndReleaseAlone(t *testing.T) {
	tbl := snapshotFixture()
	want := tbl.EncodeBinaryBytes()
	view := tbl.Freeze()
	clone := tbl.Clone()
	if _, err := tbl.Derive("zip_city", []string{"zip", "city"}, "|"); err != nil {
		t.Fatal(err)
	}
	tbl.SetCell(0, 3, "derived cells are cells")
	if _, err := tbl.Derive("again", []string{"zip_city", "note"}, "+"); err != nil {
		t.Fatal(err)
	}
	if got := view.AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatal("Derive on the table changed what its view encodes")
	}
	if got := clone.EncodeBinaryBytes(); !bytes.Equal(got, want) {
		t.Fatal("Derive or SetCell on the table reached its clone")
	}
	if got, want := tbl.Row(0), []string{"90001", "Los Angeles", "", "derived cells are cells", "derived cells are cells+"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("row 0 after two Derives around a SetCell = %q", got)
	}

	big := viewFixture(2000)
	first := big.Freeze()
	ids := &first.cols[1].ids[0]
	released := make(chan struct{})
	go func() { first.Release(); close(released) }()
	for i := 0; i < 100; i++ {
		big.SetCell(i, 1, "TX")
		big.MustAppend("x", "y")
	}
	<-released
	second := big.Freeze()
	if &second.cols[1].ids[0] != ids {
		t.Error("Freeze after a Release did not reuse the released ID buffers")
	}
	if got, want := second.AppendBinary(nil), big.EncodeBinaryBytes(); !bytes.Equal(got, want) {
		t.Error("a view over reused buffers does not encode the table")
	}
	if !race.Enabled {
		second.Release()
		if a := testing.AllocsPerRun(5, func() { big.Freeze().Release() }); a > 2 {
			t.Errorf("Freeze over released buffers allocates %.0f objects, want the view and its schema", a)
		}
	}
}
