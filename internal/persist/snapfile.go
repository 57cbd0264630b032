// The snapshot file: one per session, written whole at every checkpoint.
//
//	magic "ANMSNP" + version byte | uint32 header length |
//	header: the SessionSnapshot as JSON, without its table bytes |
//	uint32 CRC-32 (IEEE) of everything before it |
//	the table.bin bytes (View.AppendBinary), to end of file
//
// Integers are little-endian. The table section ends in its own checksum
// (table.DecodeBinaryBytes verifies it), so the two cover the whole file.
// The table section is written in table.bin version 2, the coded
// columns; a file written before that holds version 1, which restores to
// the same table and is rewritten as version 2 by the session's next
// checkpoint. The container itself did not change with it.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"github.com/anmat/anmat/internal/core"
)

// snapMagic identifies a snapshot file of the current format version.
const snapMagic = "ANMSNP\x01"

// snapPrefix is the fixed part before the header: magic and length.
const snapPrefix = len(snapMagic) + 4

// encodeSnapFile renders the snapshot as one snapshot file into buf's
// storage (buf may be nil), encoding the table from the frozen view,
// which it then releases.
func encodeSnapFile(buf []byte, snap *core.SessionSnapshot) ([]byte, error) {
	defer snap.Table.Release()
	hdr := *snap
	hdr.TableData = nil // the header never carries table bytes
	hb, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	b := binary.LittleEndian.AppendUint32(append(buf[:0], snapMagic...), uint32(len(hb)))
	b = append(b, hb...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return snap.Table.AppendBinary(b), nil
}

// decodeSnapFile parses the snapshot file named <stem>.snap (stem already
// passed validID); the result's TableData aliases b. A header naming
// another session is refused: a tampered file must not smuggle a
// path-traversing ID into the WAL path — wal.Replay truncates that file.
func decodeSnapFile(stem string, b []byte) (*core.SessionSnapshot, error) {
	if len(b) < snapPrefix+crc32.Size || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("not a version-%d snapshot file (%d bytes)", snapMagic[len(snapMagic)-1], len(b))
	}
	// As uint64: a hostile length must not wrap an int on 32-bit platforms.
	hlen := uint64(binary.LittleEndian.Uint32(b[len(snapMagic):]))
	if hlen > uint64(len(b)-snapPrefix-crc32.Size) {
		return nil, fmt.Errorf("header length %d exceeds the file (%d bytes)", hlen, len(b))
	}
	end := snapPrefix + int(hlen)
	if got, want := binary.LittleEndian.Uint32(b[end:]), crc32.ChecksumIEEE(b[:end]); got != want {
		return nil, fmt.Errorf("header checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	var snap core.SessionSnapshot
	if err := json.Unmarshal(b[snapPrefix:end], &snap); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if snap.ID != stem {
		return nil, fmt.Errorf("header names session %q", snap.ID)
	}
	snap.TableData = b[end+crc32.Size:]
	return &snap, nil
}
