package table

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"reflect"
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

// referenceEncode is the format written down a second time, the slow and
// obvious way (a growing buffer, the checksum over what was written): the
// oracle that pins EncodeBinaryBytes to the bytes on disk.
func referenceEncode(t *Table) []byte {
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

func TestBinarySnapshotFormatPinned(t *testing.T) {
	tables := append(goldenTables(t), snapshotFixture(), MustNew("empty", []string{"a"}), wideTable())
	for _, tbl := range tables {
		got := tbl.EncodeBinaryBytes()
		if want := referenceEncode(tbl); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, the reference encoder writes %d (or different ones)", tbl.Name(), len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: buffer sized %d for %d bytes", tbl.Name(), cap(got), len(got))
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
// one buffer and the list of columns. Decoding fills each column's
// dictionary and ID vector, which costs a constant (table, schema, body
// string, per column the dictionary and the IDs) plus the dictionaries'
// growth: the value list and the arena double (the arena up to 64 KB
// chunks), and go1.24's map adds a table of 1 024 slots at a time — 42
// objects at 100 rows, 198 at 20 000 all-distinct ones (it was 8 when the
// cells were windows of the body string and no dictionary existed before
// detection built one). The bound is that, with room: a constant and one
// object per 80 rows, never one per cell.
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
		bound := float64(48 + rows/80)
		if a := testing.AllocsPerRun(3, func() {
			if _, err := DecodeBinaryBytes(enc); err != nil {
				t.Fatal(err)
			}
		}); a > bound {
			t.Errorf("%d rows: DecodeBinaryBytes allocates %.0f objects, bound %.0f", rows, a, bound)
		}
	}
}

// TestBinarySnapshotHostileBodies seals structurally bad bodies with a
// correct checksum (the committed FuzzDecodeBinary corpus holds the same
// ones) and requires each to be refused for its own defect — in
// particular before any count or length in it has sized an allocation.
func TestBinarySnapshotHostileBodies(t *testing.T) {
	const head = "ANMTBL\x01\x00" // magic, version 1, empty name
	for body, want := range map[string]string{
		head + "\xff\xff\xff\xff\x0f":                                  "columns with",
		head + "\x00":                                                  "columns with",
		head + "\x01\x01a\xff\xff\xff\xff\xff\xff\x01":                 "rows of 1 columns with 0 bytes left",
		head + "\x01\x01a\x01\xff\xff\xff\xff\x0f":                     "string length 4294967295 exceeds",
		head + "\x01\x01a\x81\x00":                                     "padded varint at byte 11",
		head + "\x01\x01a\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01": "overflowing or padded varint at byte 11",
		head + "\x02\x01a\x01a\x00":                                    "duplicate column",
		head + "\x01\x00\x00":                                          "empty column name",
		"ANMTBL\x02\x00\x01\x01a\x00":                                  `unsupported version "ANMTBL\x02"`,
		head + "\x01\x01a\x00\x00":                                     "1 trailing bytes",
		head + "\x01\x01a\x02\x01x":                                    "read row 1 cell 0",
		head + "\x01\x01a":                                             "read row count",
		"ANMTBL":                                                       "truncated (10 bytes)",
		"ANMTBL\x01":                                                   "read name",
		head:                                                           "read column count",
		head + "\x02\x01a":                                             "read column 1",
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
