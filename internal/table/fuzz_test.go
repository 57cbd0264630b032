package table

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV loader never panics and that loaded tables
// survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("zip,city\n90001,\"Los Angeles\"\n")
	f.Add("h\n")
	f.Add("a,b\n1\n1,2,3\n")
	f.Add("\n")
	f.Add("a,a\n1,2\n")
	// Quoting edge cases: embedded quotes, commas, newlines inside fields.
	f.Add("a,b\n\"x\"\"y\",z\n")
	f.Add("a,b\n\"one,two\",3\n")
	f.Add("a,b\n\"line1\nline2\",3\n")
	// Empty-cell edge cases: empty fields at every position, all-empty rows.
	f.Add("a,b,c\n,,\n1,,3\n,2,\n")
	f.Add("a,b\n,\n")
	// Whitespace and unicode survive verbatim.
	f.Add("a,b\n x , y\t\n")
	f.Add("name,city\nJosé,\"São Paulo\"\n")
	f.Add("a,b\n\"\",\"\"\n")
	// Carriage returns inside quoted fields: \r\n is normalized to \n on
	// read (NormalizeCell), lone \r survives verbatim; both round-trip.
	f.Add("a,b\n\"x\r\ny\",z\n")
	f.Add("a,b\n\"x\ry\",z\n")
	// The composed \r + \r\n sequence that encoding/csv alone leaves half
	// normalized (fuzz-found seed 9758f7c18bc8a90f).
	f.Add("00\n\"\r\r\n\"")
	f.Fuzz(func(t *testing.T, data string) {
		tbl, err := ReadCSV("f", strings.NewReader(data))
		if err != nil {
			return
		}
		// RFC 4180 cannot represent a one-column row holding the empty
		// string (it serializes as a blank line, which readers skip);
		// see the WriteCSV doc comment.
		if tbl.NumCols() == 1 {
			for r := 0; r < tbl.NumRows(); r++ {
				if tbl.Cell(r, 0) == "" {
					return
				}
			}
		}
		// ReadCSV normalizes \r\n to \n in every cell, so no loaded cell
		// may contain the sequence — and therefore every loaded cell
		// (including ones holding lone carriage returns) round-trips.
		for r := 0; r < tbl.NumRows(); r++ {
			for c := 0; c < tbl.NumCols(); c++ {
				if strings.Contains(tbl.Cell(r, c), "\r\n") {
					t.Fatalf("cell (%d,%d) contains un-normalized CRLF: %q", r, c, tbl.Cell(r, c))
				}
			}
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadCSV("f", &buf)
		if err != nil {
			t.Fatalf("re-read of written CSV: %v", err)
		}
		if back.NumRows() != tbl.NumRows() || back.NumCols() != tbl.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				tbl.NumRows(), tbl.NumCols(), back.NumRows(), back.NumCols())
		}
		for r := 0; r < tbl.NumRows(); r++ {
			for c := 0; c < tbl.NumCols(); c++ {
				if tbl.Cell(r, c) != back.Cell(r, c) {
					t.Fatalf("cell (%d,%d) changed: %q -> %q", r, c, tbl.Cell(r, c), back.Cell(r, c))
				}
			}
		}
	})
}

// FuzzDecodeBinary feeds the snapshot decoder — the first thing every
// restart runs over bytes from disk — both the raw input and the input
// with a correct checksum appended (so mutations get past the CRC and
// reach the structure). Decoding never panics and allocates no more than
// a multiple of the input (no count or length is trusted further than
// the bytes behind it). Whatever decodes is canonical: a version-2 input
// re-encodes to its own bytes; a version-1 input is what the version-1
// reference encoder writes for the table it decodes to, and that table
// has the same values under the same IDs as the one its version-2
// re-encode decodes to. The seeds are the golden tables in version 2 and
// in the committed version-1 files; the hostile bodies (oversized counts
// and lengths, padded and overflowing varints, schemas New rejects,
// version-2 columns out of canonical form) are the committed corpus under
// testdata/.
func FuzzDecodeBinary(f *testing.F) {
	for _, tbl := range append(goldenTables(f), snapshotFixture(), MustNew("empty", []string{"a"}), wideTable()) {
		b := tbl.EncodeBinaryBytes()
		f.Add(b)
		f.Add(b[:len(b)-crc32.Size]) // the body alone: the harness seals it
		f.Add(b[:len(b)/2])
	}
	v1, err := filepath.Glob(filepath.Join("testdata", "v1", "*.bin"))
	if err != nil || len(v1) == 0 {
		f.Fatalf("version-1 seeds: %v (found %d)", err, len(v1))
	}
	for _, path := range v1 {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), b...), crc32.ChecksumIEEE(b))
		for _, in := range [][]byte{b, sealed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tbl, err := DecodeBinaryBytes(in)
			runtime.ReadMemStats(&after)
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256*len(in)+64<<10); grew > bound {
				t.Fatalf("decoding %d bytes allocated %d, bound %d", len(in), grew, bound)
			}
			if err != nil {
				continue
			}
			again := tbl.EncodeBinaryBytes()
			if in[len(snapshotMagic)] == codedVersion {
				if !bytes.Equal(again, in) {
					t.Fatalf("decoded %d bytes, re-encoded to %d different ones", len(in), len(again))
				}
				continue
			}
			if want := referenceEncodeV1(tbl); !bytes.Equal(in, want) {
				t.Fatalf("decoded %d version-1 bytes the reference encoder writes as %d different ones", len(in), len(want))
			}
			back, err := DecodeBinaryBytes(again)
			if err != nil {
				t.Fatalf("the version-2 re-encode of a version-1 input: %v", err)
			}
			if diff := sameCoding(back, tbl); diff != "" {
				t.Fatalf("version 1 and its version-2 re-encode decode differently: %s", diff)
			}
		}
	})
}
