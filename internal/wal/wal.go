// Package wal is the write-ahead log shared by the session durability
// layer (internal/persist) and the cluster coordinator's failover
// journal (internal/cluster): the record encoding (this file) and the
// one log implementation over it (log.go). One append-only file holds
// length-prefixed, checksummed records:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// with a JSON payload {"seq": N, "batch": [...]}. Reading tolerates a
// torn tail — a crash mid-append leaves a partial record, which recovery
// must treat as "this batch never became durable": the reader stops at
// the first record whose header, length, checksum, or JSON does not
// parse and reports the clean prefix. Anything after a torn record is
// unreachable by construction (record boundaries are unrecoverable), so
// it is discarded with the tear.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"github.com/anmat/anmat/internal/stream"
)

// Record is one journaled delta batch, keyed by the sequence number the
// owning engine assigned it.
type Record struct {
	Seq   int64        `json:"seq"`
	Batch stream.Batch `json:"batch"`
}

// MaxRecord caps one record's payload (256 MiB) so a corrupt length
// prefix reads as a torn tail instead of driving a huge allocation.
const MaxRecord = 256 << 20

// Encode renders one record as header + payload bytes.
func Encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode seq %d: %w", rec.Seq, err)
	}
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out, nil
}

// Decode parses WAL bytes. ends[i] is the byte offset just past record
// i, so callers can cut the log back to any clean prefix. tornAt is the
// byte offset of the first undecodable record (-1 when b parsed
// cleanly); records before it are returned, bytes from it on are a crash
// artifact to be cut off — left in place they would strand every record
// appended after them.
func Decode(b []byte) (recs []Record, ends []int64, tornAt int64) {
	off := 0
	for off < len(b) {
		if len(b)-off < 8 {
			return recs, ends, int64(off) // torn header
		}
		// Decode the length as int64 so a corrupt prefix with the high
		// bit set cannot wrap negative on 32-bit platforms and slip past
		// the bounds checks into a panicking slice expression.
		n := int64(binary.LittleEndian.Uint32(b[off : off+4]))
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if n > MaxRecord || int64(len(b)-off-8) < n {
			return recs, ends, int64(off) // torn or garbage payload length
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, ends, int64(off) // torn or bit-flipped payload
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, ends, int64(off) // checksummed but undecodable: foreign bytes
		}
		recs = append(recs, rec)
		off += 8 + int(n)
		ends = append(ends, int64(off))
	}
	return recs, ends, -1
}
