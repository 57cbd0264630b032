// Binary table snapshots: a compact, checksummed encoding of a whole
// table used by the durability layer (internal/persist) to checkpoint
// session state. The format is length-prefixed and versioned:
//
//	magic "ANMTBL" | uvarint version | string name |
//	uvarint ncols | ncols × string | uvarint nrows | nrows × ncols × string |
//	uint32 CRC-32 (IEEE) of everything before it
//
// where string = uvarint byte length + bytes. Decoding verifies the magic,
// the version, and the checksum, so a truncated or bit-flipped snapshot is
// reported as corrupt rather than silently loaded.
package table

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"
)

// snapshotMagic identifies a binary table snapshot stream of the current
// encoding version, the uvarint after "ANMTBL".
const snapshotMagic = "ANMTBL\x01"

// View is an immutable image of a table — name, schema and every row —
// as it stood when Freeze was called. Encoding one needs no lock and may
// run while the table it came from keeps changing.
type View struct {
	name    string
	columns []string
	cols    []frozen
	// owner is the table Release hands the ID buffers back to.
	owner *Table
}

// frozen is one column of a View: the dictionary's value list as long as
// it was at the freeze, and the rows' IDs.
type frozen struct {
	values []string
	ids    []uint32
}

// Freeze returns a View of the table as it is now. It copies the schema
// and every column's IDs (4 bytes a cell, into the buffers the last
// released view gave back when those are large enough) and takes each
// dictionary's value slice at its present length. Reading that prefix
// races with nothing the table does afterwards: a dictionary only ever
// appends — a new value lands past the prefix or in a reallocated slice,
// its bytes in arena space no earlier value occupies — and SetCell and
// DeleteRows write the table's IDs, not the copy. The caller must not
// mutate the table concurrently with Freeze itself.
func (t *Table) Freeze() *View {
	t.spareMu.Lock()
	cols := t.spare
	t.spare = nil
	t.spareMu.Unlock()
	if len(cols) < len(t.cols) { // the first view, or a Derive since the last
		cols = append(cols, make([]frozen, len(t.cols)-len(cols))...)
	}
	n := t.NumRows()
	for i, c := range t.cols {
		ids := cols[i].ids
		if cap(ids) < n {
			// An eighth of slack, so that a growing table's next view fits too.
			ids = make([]uint32, 0, n+n/8)
		}
		cols[i] = frozen{values: c.Dict.Values(), ids: append(ids[:0], c.IDs...)}
	}
	return &View{name: t.name, columns: t.Columns(), cols: cols, owner: t}
}

// Release ends the view's life and hands its ID buffers back to the table
// for the next Freeze, which then allocates nothing of the table's size.
// The view must not be used afterwards. Unlike everything else on a
// Table, Release may be called concurrently with the table's mutations.
func (v *View) Release() {
	for i := range v.cols {
		v.cols[i].values = nil // a slice the dictionary may have outgrown
	}
	v.owner.spareMu.Lock()
	v.owner.spare = v.cols
	v.owner.spareMu.Unlock()
	v.cols = nil
}

// EncodeBinaryBytes returns the table (name, schema, every row) in the
// binary snapshot format: one exactly pre-sized buffer, checksummed once.
// The mutation version is deliberately not encoded: a decoded table starts
// a fresh version timeline, and holders rebuild their caches over it.
func (t *Table) EncodeBinaryBytes() []byte {
	v := View{name: t.name, columns: t.columns, cols: make([]frozen, len(t.cols))}
	for i, c := range t.cols {
		v.cols[i] = frozen{values: c.Dict.Values(), ids: c.IDs}
	}
	return v.appendBinary(make([]byte, 0, v.binarySize()))
}

// AppendBinary appends the viewed table in the binary snapshot format to
// dst. When dst is too small it is grown once, to the size needed and an
// eighth: a caller that brings the buffer back for its next snapshot of a
// growing table then allocates nothing.
func (v *View) AppendBinary(dst []byte) []byte {
	if size := v.binarySize(); cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size+size/8), dst...)
	}
	return v.appendBinary(dst)
}

// binarySize is the exact length of the view's encoding.
func (v *View) binarySize() int {
	size := len(snapshotMagic) + stringLen(v.name) +
		uvarintLen(uint64(len(v.columns))) + uvarintLen(uint64(len(v.cols[0].ids))) + crc32.Size
	for _, c := range v.columns {
		size += stringLen(c)
	}
	for _, c := range v.cols {
		for _, id := range c.ids {
			size += stringLen(c.values[id])
		}
	}
	return size
}

// appendBinary appends the encoding to b, which the caller has sized. The
// format is row-major, so the columns are walked side by side.
func (v *View) appendBinary(b []byte) []byte {
	start := len(b)
	b = appendString(append(b, snapshotMagic...), v.name)
	b = binary.AppendUvarint(b, uint64(len(v.columns)))
	for _, c := range v.columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(v.cols[0].ids)))
	for r := range v.cols[0].ids {
		for i := range v.cols {
			c := &v.cols[i]
			b = appendString(b, c.values[c.ids[r]])
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// uvarintLen and stringLen are the encoded sizes of v and s.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func stringLen(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodeBinaryBytes reads one binary table snapshot. Any structural damage
// — truncation, a foreign stream, a flipped bit — yields an error naming
// the defect. The body is copied into one string that lives for the call:
// the name and the columns are cut out of it, the cells are interned from
// it into the columns' dictionaries. Per column that allocates the ID
// vector, sized by a row count already checked against the bytes left, and
// what a dictionary of its distinct values costs — the value list and the
// arena double, the map adds a table as it fills one — never an object per
// cell.
func DecodeBinaryBytes(b []byte) (*Table, error) {
	if len(b) < len(snapshotMagic)+crc32.Size {
		return nil, fmt.Errorf("table snapshot: truncated (%d bytes)", len(b))
	}
	body, tail := b[:len(b)-crc32.Size], b[len(b)-crc32.Size:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("table snapshot: checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	s, off := string(body), len(snapshotMagic)
	if s[:off] != snapshotMagic {
		return nil, fmt.Errorf("table snapshot: bad magic or unsupported version %q", s[:off])
	}
	// uvarint accepts only the shortest encoding of a value (the one the
	// encoder writes), so that what decodes re-encodes to the same bytes.
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 || n != uvarintLen(v) {
			return 0, fmt.Errorf("truncated, overflowing or padded varint at byte %d", off)
		}
		off += n
		return v, nil
	}
	str := func() (string, error) {
		n, err := uvarint()
		if err != nil {
			return "", err
		}
		if n > uint64(len(s)-off) {
			return "", fmt.Errorf("string length %d exceeds the %d bytes left", n, len(s)-off)
		}
		off += int(n)
		return s[off-int(n) : off], nil
	}
	// The name and the columns are cloned out of s: the table keeps them,
	// and a substring would keep the whole body with it.
	name, err := str()
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read name: %w", err)
	}
	// Every string costs at least its length byte, so a count beyond the
	// bytes left is corrupt — checked before anything is sized by it.
	ncols, err := uvarint()
	if err == nil && (ncols == 0 || ncols > uint64(len(s)-off)) {
		err = fmt.Errorf("%d columns with %d bytes left", ncols, len(s)-off)
	}
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read column count: %w", err)
	}
	cols := make([]string, ncols)
	for i := range cols {
		if cols[i], err = str(); err != nil {
			return nil, fmt.Errorf("table snapshot: read column %d: %w", i, err)
		}
		cols[i] = strings.Clone(cols[i])
	}
	t, err := New(strings.Clone(name), cols)
	if err != nil {
		return nil, fmt.Errorf("table snapshot: %w", err)
	}
	nrows, err := uvarint()
	if err == nil && nrows > uint64(len(s)-off)/ncols {
		err = fmt.Errorf("%d rows of %d columns with %d bytes left", nrows, ncols, len(s)-off)
	}
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read row count: %w", err)
	}
	for _, c := range t.cols {
		c.IDs = make([]uint32, nrows)
	}
	for r := 0; r < int(nrows); r++ {
		for i, c := range t.cols {
			cell, err := str()
			if err != nil {
				return nil, fmt.Errorf("table snapshot: read row %d cell %d: %w", r, i, err)
			}
			c.IDs[r] = c.Dict.Intern(cell)
		}
	}
	if off != len(s) {
		return nil, fmt.Errorf("table snapshot: %d trailing bytes after %d rows", len(s)-off, nrows)
	}
	return t, nil
}
