package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/race"
)

func snapshotFixture() *Table {
	return MustFromRows("fixture", []string{"zip", "city", "note"}, [][]string{
		{"90001", "Los Angeles", ""},
		{"10001", "New York", "quoted \"cell\""},
		{"85777", "Phoenix", "multi\nline"},
		{"", "", "unicode ✓ €"},
	})
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	orig := snapshotFixture()
	b := orig.EncodeBinaryBytes()
	back, err := DecodeBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != orig.Name() {
		t.Errorf("name = %q, want %q", back.Name(), orig.Name())
	}
	if !reflect.DeepEqual(back.Columns(), orig.Columns()) {
		t.Errorf("columns = %v", back.Columns())
	}
	if back.NumRows() != orig.NumRows() {
		t.Fatalf("rows = %d, want %d", back.NumRows(), orig.NumRows())
	}
	for r := 0; r < orig.NumRows(); r++ {
		if !reflect.DeepEqual(back.Row(r), orig.Row(r)) {
			t.Errorf("row %d = %v, want %v", r, back.Row(r), orig.Row(r))
		}
	}
}

func TestBinarySnapshotEmptyTable(t *testing.T) {
	orig := MustNew("empty", []string{"a", "b"})
	b := orig.EncodeBinaryBytes()
	back, err := DecodeBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || back.NumCols() != 2 {
		t.Errorf("decoded %d rows × %d cols", back.NumRows(), back.NumCols())
	}
}

func TestBinarySnapshotCorruption(t *testing.T) {
	good := snapshotFixture().EncodeBinaryBytes()
	cases := map[string][]byte{
		"empty":     {},
		"tiny":      []byte("AN"),
		"bad magic": append([]byte("XXXXXX"), good[6:]...),
		"truncated": good[:len(good)/2],
		"one short": good[:len(good)-1],
		"garbage":   []byte(strings.Repeat("\x91\x02", 64)),
		"trailing":  append(append([]byte{}, good...), 0xAA),
		"double":    append(append([]byte{}, good...), good...),
	}
	// A flipped bit anywhere in the body must fail the checksum.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/3] ^= 0x40
	cases["bit flip"] = flipped
	for name, b := range cases {
		if _, err := DecodeBinaryBytes(b); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

// referenceEncode is version 2 written down a second time, the slow and
// obvious way (a map numbering each column's values by first use, the
// IDs packed one bit at a time, the checksum over what was written): the
// oracle that pins EncodeBinaryBytes to the bytes on disk.
func referenceEncode(t *Table) []byte {
	var buf bytes.Buffer
	uv := func(v int) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(v))])
	}
	str := func(s string) { uv(len(s)); buf.WriteString(s) }
	buf.WriteString("ANMTBL")
	uv(2)
	str(t.Name())
	uv(t.NumCols())
	for _, c := range t.Columns() {
		str(c)
	}
	uv(t.NumRows())
	for c := 0; c < t.NumCols(); c++ {
		num := map[string]int{}
		var values []string
		ids := make([]int, t.NumRows())
		size := 0
		for r := range ids {
			v := t.Cell(r, c)
			id, seen := num[v]
			if !seen {
				id = len(values)
				num[v] = id
				values = append(values, v)
				size += len(v)
			}
			ids[r] = id
		}
		uv(len(values))
		uv(size)
		for _, v := range values {
			uv(len(v))
		}
		for _, v := range values {
			buf.WriteString(v)
		}
		w := 1
		for 1<<w < len(values) {
			w++
		}
		packed := make([]byte, (len(ids)*w+7)/8)
		for r, id := range ids {
			for k := 0; k < w; k++ {
				if id>>k&1 == 1 {
					packed[(r*w+k)/8] |= 1 << ((r*w + k) % 8)
				}
			}
		}
		buf.Write(packed)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(sum[:])
	return buf.Bytes()
}

// referenceEncodeV1 is version 1, row by row, as the release before
// version 2 wrote it: what a version-1 input that decodes must have been.
func referenceEncodeV1(t *Table) []byte {
	var buf bytes.Buffer
	uv := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	str := func(s string) { uv(uint64(len(s))); buf.WriteString(s) }
	buf.WriteString("ANMTBL")
	uv(1)
	str(t.Name())
	uv(uint64(t.NumCols()))
	for _, c := range t.Columns() {
		str(c)
	}
	uv(uint64(t.NumRows()))
	for r := 0; r < t.NumRows(); r++ {
		for _, cell := range t.Row(r) {
			str(cell)
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(sum[:])
	return buf.Bytes()
}

// sameCoding reports how a and b differ — name, schema, and per column
// the dictionary's values and the rows' IDs — or "" when they do not.
func sameCoding(a, b *Table) string {
	if a.Name() != b.Name() || !reflect.DeepEqual(a.Columns(), b.Columns()) {
		return fmt.Sprintf("schema %q %q, want %q %q", a.Name(), a.Columns(), b.Name(), b.Columns())
	}
	for i := 0; i < a.NumCols(); i++ {
		x, y := a.InternedColumn(i), b.InternedColumn(i)
		if !slices.Equal(x.Dict.Values(), y.Dict.Values()) {
			return fmt.Sprintf("column %d: values %q, want %q", i, x.Dict.Values(), y.Dict.Values())
		}
		if !slices.Equal(x.IDs, y.IDs) {
			return fmt.Sprintf("column %d: IDs %v, want %v", i, x.IDs, y.IDs)
		}
	}
	return ""
}

// deadValues returns tables whose dictionaries hold values no row does
// and first uses out of ID order — left by SetCell and DeleteRows — so
// that encoding them takes the renumbering path.
func deadValues() []*Table {
	var out []*Table
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := MustNew("dead"+strconv.FormatInt(seed, 10), []string{"a", "b"})
		for i := 0; i < 20+r.Intn(200); i++ {
			tbl.MustAppend(strconv.Itoa(r.Intn(40)), strconv.Itoa(r.Intn(3)))
		}
		for i := 0; i < 30; i++ {
			switch n := tbl.NumRows(); {
			case n > 0 && r.Intn(3) == 0:
				if _, err := tbl.DeleteRows(r.Intn(n), r.Intn(n)); err != nil {
					panic(err)
				}
			case n > 0:
				tbl.SetCell(r.Intn(n), r.Intn(2), strconv.Itoa(r.Intn(60)))
			default:
				tbl.MustAppend("x", "y")
			}
		}
		out = append(out, tbl)
	}
	return out
}

// goldenTables loads the golden corpus tables (testdata/*.csv at the
// repository root).
func goldenTables(t testing.TB) []*Table {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.csv"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus tables: %v (found %d)", err, len(paths))
	}
	var out []*Table
	for _, p := range paths {
		tbl, err := ReadCSVFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tbl)
	}
	return out
}

// wideTable has cells long enough for two-byte length prefixes and a
// column count that needs one too.
func wideTable() *Table {
	cols := make([]string, 130)
	row := make([]string, len(cols))
	for i := range cols {
		cols[i] = "c" + strconv.Itoa(i)
		row[i] = strings.Repeat("x", i*3)
	}
	return MustFromRows("wide", cols, [][]string{row, row})
}

// TestBinarySnapshotFormatPinned pins the encoder to the reference
// encoder, through EncodeBinaryBytes (one exactly sized buffer) and
// through a view, on both encoder paths: tables whose dictionaries are
// already canonical, and tables with dead values that must be renumbered.
func TestBinarySnapshotFormatPinned(t *testing.T) {
	tables := append(goldenTables(t), snapshotFixture(), MustNew("empty", []string{"a"}), wideTable())
	for _, tbl := range append(tables, deadValues()...) {
		got := tbl.EncodeBinaryBytes()
		if want := referenceEncode(tbl); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, the reference encoder writes %d (or different ones)", tbl.Name(), len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: buffer sized %d for %d bytes", tbl.Name(), cap(got), len(got))
		}
		view := tbl.Freeze()
		if again := view.AppendBinary(nil); !bytes.Equal(again, got) {
			t.Errorf("%s: a view encodes to %d bytes that are not the table's %d", tbl.Name(), len(again), len(got))
		}
		view.Release()
	}
}

// TestBinarySnapshotVersion1Pinned: the version-1 files under testdata/v1,
// written by the release before version 2, decode to the tables they were
// written from — the same values under the same IDs as those tables'
// clones — and are what the version-1 reference encoder writes for them.
func TestBinarySnapshotVersion1Pinned(t *testing.T) {
	tables := append(goldenTables(t), snapshotFixture(), MustNew("empty", []string{"a"}))
	for _, want := range tables {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", want.Name()+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, referenceEncodeV1(want)) {
			t.Errorf("%s: the committed version-1 bytes are not the reference encoder's", want.Name())
		}
		got, err := DecodeBinaryBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", want.Name(), err)
		}
		if diff := sameCoding(got, want.Clone()); diff != "" {
			t.Errorf("%s: decoded version 1: %s", want.Name(), diff)
		}
	}
	wide := wideTable() // two-byte lengths and column count, not committed
	got, err := DecodeBinaryBytes(referenceEncodeV1(wide))
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameCoding(got, wide.Clone()); diff != "" {
		t.Errorf("wide: decoded version 1: %s", diff)
	}
}

// TestBinarySnapshotDecodesToClone is the numbering property: a table
// comes back from its encoding as its Clone — the rows' values in order
// of first use, dead values dropped — however its dictionary got the way
// it is.
func TestBinarySnapshotDecodesToClone(t *testing.T) {
	tables := append(goldenTables(t), snapshotFixture(), MustNew("empty", []string{"a"}), wideTable())
	for _, tbl := range append(tables, deadValues()...) {
		back, err := DecodeBinaryBytes(tbl.EncodeBinaryBytes())
		if err != nil {
			t.Fatalf("%s: %v", tbl.Name(), err)
		}
		if diff := sameCoding(back, tbl.Clone()); diff != "" {
			t.Errorf("%s: %s", tbl.Name(), diff)
		}
	}
}

// TestBinarySnapshotDecodedTakesDerive: a decoded table is a table like
// any other — it re-encodes to the bytes it came from, takes a Derive, and
// then encodes like a table that was built row by row and derived.
func TestBinarySnapshotDecodedTakesDerive(t *testing.T) {
	b := snapshotFixture().EncodeBinaryBytes()
	back, err := DecodeBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.EncodeBinaryBytes(); !bytes.Equal(again, b) {
		t.Fatalf("decoded table re-encodes to %d bytes that are not the %d it was decoded from", len(again), len(b))
	}
	if _, err := back.Derive("zip_city", []string{"zip", "city"}, "|"); err != nil {
		t.Fatal(err)
	}
	want := snapshotFixture()
	for r := 0; r < want.NumRows(); r++ {
		derived := want.Cell(r, 0) + "|" + want.Cell(r, 1)
		if got := back.Row(r); !reflect.DeepEqual(got, append(want.Row(r), derived)) {
			t.Errorf("row %d after Derive = %q", r, got)
		}
	}
	if _, err := want.Derive("zip_city", []string{"zip", "city"}, "|"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.EncodeBinaryBytes(), want.EncodeBinaryBytes()) {
		t.Error("derived after decoding and derived after building encode differently")
	}
}

// TestBinarySnapshotAllocs is the codec's allocation gate. Encoding is
// one buffer and the list of columns, and encoding a view again into the
// buffer its last encode returned allocates nothing, on both encoder
// paths (after a DeleteRows, the renumbering scratch is the view's from
// the first encode on). Decoding version 2 costs a constant per table,
// whatever the row count: 25 objects for these two columns — the table
// and its schema, and per column New's empty dictionary, then the decoded
// one (struct, index, value list, arena) and the ID vector. Version 1
// through a map read 198 at 20 000 all-distinct rows, the map adding a
// table of 1 024 slots at a time.
func TestBinarySnapshotAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations void the bound")
	}
	for _, rows := range []int{100, 20_000} {
		tbl := MustNew("phones", []string{"phone", "state"})
		for i := 0; i < rows; i++ {
			tbl.MustAppend(strconv.Itoa(8500000000+i), "FL")
		}
		var enc []byte
		if a := testing.AllocsPerRun(3, func() { enc = tbl.EncodeBinaryBytes() }); a > 2 {
			t.Errorf("%d rows: EncodeBinaryBytes allocates %.0f objects, bound 2", rows, a)
		}
		const bound = 28
		if a := testing.AllocsPerRun(3, func() {
			if _, err := DecodeBinaryBytes(enc); err != nil {
				t.Fatal(err)
			}
		}); a > bound {
			t.Errorf("%d rows: DecodeBinaryBytes allocates %.0f objects, bound %d", rows, a, bound)
		}
		for _, path := range []string{"append-only", "renumbered"} {
			if path == "renumbered" {
				if _, err := tbl.DeleteRows(0, rows/2); err != nil {
					t.Fatal(err)
				}
			}
			view := tbl.Freeze()
			buf := view.AppendBinary(nil)
			if a := testing.AllocsPerRun(3, func() { buf = view.AppendBinary(buf[:0]) }); a != 0 {
				t.Errorf("%d rows, %s: encoding a view again into its buffer allocates %.0f objects", rows, path, a)
			}
			if !bytes.Equal(buf, tbl.EncodeBinaryBytes()) {
				t.Errorf("%d rows, %s: the view's encoding is not the table's", rows, path)
			}
			view.Release()
		}
	}
}

// TestBinarySnapshotHostileBodies seals structurally bad bodies with a
// correct checksum (the committed FuzzDecodeBinary corpus holds the same
// ones) and requires each to be refused for its own defect — in
// particular before any count or length in it has sized an allocation.
func TestBinarySnapshotHostileBodies(t *testing.T) {
	const head = "ANMTBL\x01\x00"           // magic, version 1, empty name
	const coded = "ANMTBL\x02\x00\x01\x01a" // version 2, empty name, column "a"
	for body, want := range map[string]string{
		head + "\xff\xff\xff\xff\x0f":                                  "columns with",
		head + "\x00":                                                  "columns with",
		head + "\x01\x01a\xff\xff\xff\xff\xff\xff\x01":                 "rows of 1 columns with 0 bytes left",
		head + "\x01\x01a\x01\xff\xff\xff\xff\x0f":                     "string length 4294967295 exceeds",
		head + "\x01\x01a\x81\x00":                                     "padded varint at byte 11",
		head + "\x01\x01a\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01": "overflowing or padded varint at byte 11",
		head + "\x02\x01a\x01a\x00":                                    "duplicate column",
		head + "\x01\x00\x00":                                          "empty column name",
		"ANMTBL\x03\x00\x01\x01a\x00":                                  `unsupported version "ANMTBL\x03"`,
		head + "\x01\x01a\x00\x00":                                     "1 trailing bytes",
		head + "\x01\x01a\x02\x01x":                                    "read row 1 cell 0",
		head + "\x01\x01a":                                             "read row count",
		"ANMTBL":                                                       "truncated (10 bytes)",
		"ANMTBL\x01":                                                   "read name",
		head:                                                           "read column count",
		head + "\x02\x01a":                                             "read column 1",
		// Version 2, one per defect of the coded column.
		coded + "\x01\x7f\x00":                    "127 values of 0 bytes with 0 bytes left",
		coded + "\x01\x01\x7f\x00":                "1 values of 127 bytes with 1 bytes left",
		coded + "\x11\x01\x01":                    "17 rows of 1 columns with 2 bytes left",
		coded + "\x02\x02\x02\x01\x01aa\x02":      `value 1 ("a") is listed twice`,
		coded + "\x01\x02\x02\x01\x01ab\x00":      "value 1 is used by no row",
		coded + "\x02\x02\x02\x01\x01ab\x01":      "row 0: value 1 used before value 0",
		coded + "\x03\x03\x03\x01\x01\x01abc\x34": "row 2: ID 3 is not below the 3 values",
		coded + "\x01\x01\x01\x01a\x02":           "non-zero padding after 1 rows",
		coded + "\x01\x01\x01\x01a":               "column 0: 1 rows of 1-bit IDs with 0 bytes left",
		coded + "\x01\x01\x01\x81\x00a\x00":       "value 0: truncated, overflowing or padded length",
	} {
		sealed := binary.LittleEndian.AppendUint32([]byte(body), crc32.ChecksumIEEE([]byte(body)))
		if _, err := DecodeBinaryBytes(sealed); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("body %q: err = %v, want one naming %q", body, err, want)
		}
	}
	if _, err := DecodeBinaryBytes([]byte(head + "\x01\x01a\x00\x00\x00\x00\x00")); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("unsealed body: err = %v, want a checksum mismatch", err)
	}
}
