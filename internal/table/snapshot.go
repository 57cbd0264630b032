// Binary table snapshots: a compact, checksummed encoding of a whole
// table used by the durability layer (internal/persist) to checkpoint
// session state, and by cluster.Store. The format is length-prefixed and
// versioned; version 2 is the coded column as the table holds it:
//
//	magic "ANMTBL" | uvarint version 2 | string name |
//	uvarint ncols | ncols × string | uvarint nrows | ncols × column |
//	uint32 CRC-32 (IEEE) of everything before it
//
//	column = uvarint live | uvarint size | live × uvarint length |
//	         size bytes: the live values end to end |
//	         ⌈nrows·w/8⌉ bytes: the rows' IDs, w bits each, LSB first
//
// where string = uvarint byte length + bytes, live is the number of
// distinct values the rows hold, size their bytes in all, and w =
// max(1, ⌈log₂ live⌉). The last byte's unused high bits are zero.
//
// The form is canonical — one table, one encoding: the values are
// distinct, every one is some row's, and they are listed in the order
// the rows first use them, so the IDs are the first-occurrence numbering
// Table.Clone gives. A table whose dictionary is already in that form
// (every upload, every append-only stream) is written as it stands;
// others are renumbered on the way out. The decoder refuses anything
// else, so that what decodes re-encodes to the same bytes.
//
// Version 1, still decoded (existing data directories, backups and
// cluster.Store files), spells every cell out row by row:
//
//	magic "ANMTBL" | uvarint version 1 | string name |
//	uvarint ncols | ncols × string | uvarint nrows | nrows × ncols × string |
//	uint32 CRC-32 (IEEE)
//
// Both decode to the same table with the same IDs. Decoding verifies the
// magic, the version, and the checksum, so a truncated or bit-flipped
// snapshot is reported as corrupt rather than silently loaded.
package table

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"
	"unsafe"

	"github.com/anmat/anmat/internal/intern"
)

// snapshotMagic identifies a binary table snapshot stream; the byte after
// it is the version, a one-byte uvarint.
const snapshotMagic = "ANMTBL"

// The versions DecodeBinaryBytes reads; the encoder writes version 2.
const (
	rowsVersion  = 1
	codedVersion = 2
)

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
// it was at the freeze, and the rows' IDs. The rest is the encoder's (see
// plan): remap, old ID → new ID+1, and order, the old IDs in new order
// (nil when the column is written as it stands), share one scratch
// slice; bytes is the live values' total length.
type frozen struct {
	values []string
	ids    []uint32
	remap  []uint32
	order  []uint32
	bytes  int
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
		cols[i] = frozen{values: c.Dict.Values(), ids: append(ids[:0], c.IDs...), remap: cols[i].remap}
	}
	return &View{name: t.name, columns: t.Columns(), cols: cols, owner: t}
}

// Release ends the view's life and hands its ID buffers and the encoder's
// scratch back to the table for the next Freeze, which then allocates
// nothing of the table's size. The view must not be used afterwards.
// Unlike everything else on a Table, Release may be called concurrently
// with the table's mutations.
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
	size := v.binarySize()
	return v.appendBinary(make([]byte, 0, size))
}

// AppendBinary appends the viewed table in the binary snapshot format to
// dst. When dst is too small it is grown once, to the size needed and an
// eighth: a caller that brings the buffer back for its next snapshot of a
// growing table then allocates nothing. The encoder keeps its plan and
// scratch on the view, so one view is encoded by one goroutine at a time.
func (v *View) AppendBinary(dst []byte) []byte {
	if size := v.binarySize(); cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size+size/8), dst...)
	}
	return v.appendBinary(dst)
}

// binarySize is the exact length of the view's encoding; it plans each
// column for appendBinary.
func (v *View) binarySize() int {
	nrows := len(v.cols[0].ids)
	size := len(snapshotMagic) + 1 + stringLen(v.name) +
		uvarintLen(uint64(len(v.columns))) + uvarintLen(uint64(nrows)) + crc32.Size
	for _, c := range v.columns {
		size += stringLen(c)
	}
	for i := range v.cols {
		c := &v.cols[i]
		c.plan()
		c.bytes = 0
		for k := range c.live() {
			n := len(c.value(k))
			c.bytes += n
			size += uvarintLen(uint64(n))
		}
		size += uvarintLen(uint64(c.live())) +
			uvarintLen(uint64(c.bytes)) + c.bytes + packedLen(nrows, c.live())
	}
	return size
}

// plan leaves order nil when the column is in canonical form — every
// value used, first used in ID order, as one scan tells — and otherwise
// numbers the used values by first use into remap and lists their old
// IDs by new ID in order, both in the column's scratch.
func (c *frozen) plan() {
	c.order = nil
	next := uint32(0)
	for _, id := range c.ids {
		if id > next {
			break
		}
		if id == next {
			next++
		}
	}
	if int(next) == len(c.values) {
		return // every value was reached in order, so no ID jumped ahead
	}
	n := len(c.values)
	if cap(c.remap) < 2*n {
		c.remap = make([]uint32, 2*n)
	}
	c.remap = c.remap[:n]
	clear(c.remap)
	c.order = c.remap[n:n]
	for _, id := range c.ids {
		if c.remap[id] == 0 {
			c.order = append(c.order, id)
			c.remap[id] = uint32(len(c.order))
		}
	}
}

// live is the number of values the column's rows hold, and value the
// k-th of them in first-use order: as planned.
func (c *frozen) live() int {
	if c.order == nil {
		return len(c.values)
	}
	return len(c.order)
}

func (c *frozen) value(k int) string {
	if c.order == nil {
		return c.values[k]
	}
	return c.values[c.order[k]]
}

// appendBinary appends the encoding to b, which the caller has sized by
// binarySize.
func (v *View) appendBinary(b []byte) []byte {
	start := len(b)
	b = appendString(append(append(b, snapshotMagic...), codedVersion), v.name)
	b = binary.AppendUvarint(b, uint64(len(v.columns)))
	for _, c := range v.columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(v.cols[0].ids)))
	for i := range v.cols {
		c := &v.cols[i]
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(c.live())), uint64(c.bytes))
		for k := range c.live() {
			b = binary.AppendUvarint(b, uint64(len(c.value(k))))
		}
		for k := range c.live() {
			b = append(b, c.value(k)...)
		}
		remap := c.remap
		if c.order == nil {
			remap = nil
		}
		b = pack(b, c.ids, remap, idWidth(c.live()))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// idWidth is the bits an ID takes in a column of live values: ⌈log₂
// live⌉, and never 0, so that the ID bytes bound the row count.
func idWidth(live int) uint {
	if live <= 2 {
		return 1
	}
	return uint(bits.Len64(uint64(live - 1)))
}

// packedLen is the byte length of nrows IDs of a column of live values.
func packedLen(nrows, live int) int { return (nrows*int(idWidth(live)) + 7) / 8 }

// pack appends the IDs w bits each, LSB first, through a 64-bit
// accumulator flushed 32 bits at a time; remap, when not nil, maps an ID
// to its new ID+1 first.
func pack(b []byte, ids, remap []uint32, w uint) []byte {
	var acc uint64
	var n uint
	for _, id := range ids {
		if remap != nil {
			id = remap[id] - 1
		}
		acc |= uint64(id) << n
		if n += w; n >= 32 {
			b = binary.LittleEndian.AppendUint32(b, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	for ; n > 0; n -= min(n, 8) {
		b = append(b, byte(acc))
		acc >>= 8
	}
	return b
}

// uvarintLen and stringLen are the encoded sizes of v and s.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func stringLen(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decoder reads a snapshot body front to back.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) left() int { return len(d.b) - d.off }

// uvarint accepts only the shortest encoding of a value (the one the
// encoder writes), so that what decodes re-encodes to the same bytes.
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n != uvarintLen(v) {
		return 0, fmt.Errorf("truncated, overflowing or padded varint at byte %d", d.off)
	}
	d.off += n
	return v, nil
}

// str returns the next string as a view of the body, valid while the
// body is: callers that keep it clone it.
func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.left()) {
		return "", fmt.Errorf("string length %d exceeds the %d bytes left", n, d.left())
	}
	d.off += int(n)
	return unsafe.String(unsafe.SliceData(d.b[d.off-int(n):]), int(n)), nil
}

// DecodeBinaryBytes reads one binary table snapshot of either version.
// Any structural damage — truncation, a foreign stream, a flipped bit, a
// version-2 body not in canonical form — yields an error naming the
// defect, and every count is checked against the bytes left before
// anything is sized by it. The name and the schema are copied out of b,
// which the table does not keep. A version-2 column costs a constant
// number of allocations: its values' bytes are copied once into the
// column's arena and indexed by a dictionary sized from their count, and
// its IDs are unpacked into a vector sized from the row count. A
// version-1 body interns its cells one by one as it reads them, with the
// same resulting IDs: first-occurrence numbering.
func DecodeBinaryBytes(b []byte) (*Table, error) {
	if len(b) < len(snapshotMagic)+1+crc32.Size {
		return nil, fmt.Errorf("table snapshot: truncated (%d bytes)", len(b))
	}
	body, tail := b[:len(b)-crc32.Size], b[len(b)-crc32.Size:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("table snapshot: checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	head, version := body[:len(snapshotMagic)+1], body[len(snapshotMagic)]
	if string(head[:len(snapshotMagic)]) != snapshotMagic || version != rowsVersion && version != codedVersion {
		return nil, fmt.Errorf("table snapshot: bad magic or unsupported version %q", head)
	}
	d := &decoder{b: body, off: len(head)}
	name, err := d.str()
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read name: %w", err)
	}
	// Every string costs at least its length byte, so a count beyond the
	// bytes left is corrupt — checked before anything is sized by it.
	ncols, err := d.uvarint()
	if err == nil && (ncols == 0 || ncols > uint64(d.left())) {
		err = fmt.Errorf("%d columns with %d bytes left", ncols, d.left())
	}
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read column count: %w", err)
	}
	cols := make([]string, ncols)
	for i := range cols {
		if cols[i], err = d.str(); err != nil {
			return nil, fmt.Errorf("table snapshot: read column %d: %w", i, err)
		}
		cols[i] = strings.Clone(cols[i])
	}
	t, err := New(strings.Clone(name), cols)
	if err != nil {
		return nil, fmt.Errorf("table snapshot: %w", err)
	}
	// A cell costs at least its length byte in version 1 and one bit (see
	// idWidth) in version 2.
	nrows, err := d.uvarint()
	cellsPerByte := uint64(8)
	if version == rowsVersion {
		cellsPerByte = 1
	}
	if err == nil && nrows > uint64(d.left())*cellsPerByte/ncols {
		err = fmt.Errorf("%d rows of %d columns with %d bytes left", nrows, ncols, d.left())
	}
	if err != nil {
		return nil, fmt.Errorf("table snapshot: read row count: %w", err)
	}
	if version == rowsVersion {
		err = d.readRows(t, int(nrows))
	} else {
		err = d.readColumns(t, int(nrows))
	}
	if err != nil {
		return nil, fmt.Errorf("table snapshot: %w", err)
	}
	if d.left() != 0 {
		return nil, fmt.Errorf("table snapshot: %d trailing bytes after %d rows", d.left(), nrows)
	}
	return t, nil
}

// readRows reads version 1's cells, row by row, interning each.
func (d *decoder) readRows(t *Table, nrows int) error {
	for _, c := range t.cols {
		c.IDs = make([]uint32, nrows)
	}
	for r := 0; r < nrows; r++ {
		for i, c := range t.cols {
			cell, err := d.str()
			if err != nil {
				return fmt.Errorf("read row %d cell %d: %w", r, i, err)
			}
			c.IDs[r] = c.Dict.Intern(cell)
		}
	}
	return nil
}

// readColumns reads version 2's columns.
func (d *decoder) readColumns(t *Table, nrows int) error {
	for i := range t.cols {
		live, err := d.uvarint()
		var size uint64
		if err == nil {
			size, err = d.uvarint()
		}
		var dict *intern.Dict
		if err == nil {
			var n int
			dict, n, err = intern.Decode(d.b[d.off:], live, size)
			d.off += n
		}
		if err != nil {
			return fmt.Errorf("read column %d values: %w", i, err)
		}
		w, packed := idWidth(dict.Len()), packedLen(nrows, dict.Len())
		if packed > d.left() {
			return fmt.Errorf("column %d: %d rows of %d-bit IDs with %d bytes left", i, nrows, w, d.left())
		}
		ids := make([]uint32, nrows)
		if err := unpack(ids, d.b[d.off:d.off+packed], w, uint32(dict.Len())); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
		d.off += packed
		t.cols[i].Dict, t.cols[i].IDs = dict, ids
	}
	return nil
}

// unpack reads len(ids) IDs of w bits from p, a word at a time, and holds
// them to the canonical form: every ID below live, each new value used
// in ID order, every value used, the padding zero.
func unpack(ids []uint32, p []byte, w uint, live uint32) error {
	mask := uint64(1)<<w - 1
	next, bit := uint32(0), uint(0)
	var word [8]byte
	for r := range ids {
		at := bit >> 3
		src := p[at:]
		if len(src) < 8 {
			copy(word[:], src)
			clear(word[len(src):])
			src = word[:]
		}
		id := uint32(binary.LittleEndian.Uint64(src) >> (bit & 7) & mask)
		switch {
		case id >= live:
			return fmt.Errorf("row %d: ID %d is not below the %d values", r, id, live)
		case id > next:
			return fmt.Errorf("row %d: value %d used before value %d", r, id, next)
		case id == next:
			next++
		}
		ids[r] = id
		bit += w
	}
	if next != live {
		return fmt.Errorf("value %d is used by no row", next)
	}
	if bit&7 != 0 && p[len(p)-1]>>(bit&7) != 0 {
		return fmt.Errorf("non-zero padding after %d rows", len(ids))
	}
	return nil
}
