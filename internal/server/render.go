package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// The two violation-bearing bodies — a violation page and a violation
// diff (the delta ack and ?since=) — are the server's hot responses, up
// to hundreds of violations each. They are rendered here in one pass into
// a pooled buffer, with no reflection, no intermediate map or change list
// and no second indentation pass, and come out byte-identical to what
// writeJSON's encoding/json encoder makes of the same map (sorted keys,
// one-space indent, HTML-safe escapes, trailing newline):
// FuzzViolationBodies holds them to that definition.

// bodies recycles render buffers; one grown past maxPooledBody (a full
// reset snapshot, say) is left to the collector rather than kept.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeBody sends a rendered body and returns its buffer to the pool.
func writeBody(w http.ResponseWriter, bp *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(*bp)
	if cap(*bp) <= maxPooledBody {
		bodies.Put(bp)
	}
}

// writeDiff renders a stream diff with pagination metadata: the changes
// list is the additions then the removals, both in the engine's
// violation order, paged by limit/offset.
func writeDiff(w http.ResponseWriter, sessionID string, d *stream.Diff, limit, offset int) {
	bp := bodies.Get().(*[]byte)
	*bp = appendDiff((*bp)[:0], sessionID, d, limit, offset)
	writeBody(w, bp)
}

// writeViolationPage renders one page of a session's violations with the
// total count.
func writeViolationPage(w http.ResponseWriter, sessionID string, vs []pfd.Violation, limit, offset int) {
	bp := bodies.Get().(*[]byte)
	*bp = appendViolationPage((*bp)[:0], sessionID, vs, limit, offset)
	writeBody(w, bp)
}

func appendDiff(b []byte, sessionID string, d *stream.Diff, limit, offset int) []byte {
	count := len(d.Added) + len(d.Removed)
	offset = min(offset, count)
	end := count
	if limit > 0 {
		end = min(end, offset+limit)
	}
	b = strconv.AppendInt(member(append(b, '{'), 1, "added"), int64(len(d.Added)), 10)
	b = append(member(append(b, ','), 1, "changes"), '[')
	for i := offset; i < end; i++ {
		if i > offset {
			b = append(b, ',')
		}
		kind, vs, j := "added", d.Added, i
		if i >= len(d.Added) {
			kind, vs, j = "removed", d.Removed, i-len(d.Added)
		}
		b = appendString(member(append(newline(b, 2), '{'), 3, "kind"), kind)
		b = appendViolation(member(append(b, ','), 3, "violation"), &vs[j], 3)
		b = append(newline(b, 2), '}')
	}
	if end > offset {
		b = newline(b, 1)
	}
	b = strconv.AppendInt(member(append(b, "],"...), 1, "count"), int64(count), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "offset"), int64(offset), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "removed"), int64(len(d.Removed)), 10)
	b = strconv.AppendBool(member(append(b, ','), 1, "reset"), d.Reset)
	b = strconv.AppendInt(member(append(b, ','), 1, "returned"), int64(end-offset), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "rows"), int64(d.Rows), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "seq"), d.Seq, 10)
	b = appendString(member(append(b, ','), 1, "session"), sessionID)
	return append(b, "\n}\n"...)
}

func appendViolationPage(b []byte, sessionID string, vs []pfd.Violation, limit, offset int) []byte {
	page, offset := paginate(vs, limit, offset)
	b = strconv.AppendInt(member(append(b, '{'), 1, "count"), int64(len(vs)), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "offset"), int64(offset), 10)
	b = strconv.AppendInt(member(append(b, ','), 1, "returned"), int64(len(page)), 10)
	b = appendString(member(append(b, ','), 1, "session"), sessionID)
	b = appendArray(member(append(b, ','), 1, "violations"), page, 1, func(b []byte, v *pfd.Violation) []byte {
		return appendViolation(b, v, 2)
	})
	return append(b, "\n}\n"...)
}

// appendViolation renders v as an object whose braces sit at depth d.
func appendViolation(b []byte, v *pfd.Violation, d int) []byte {
	b = appendString(member(append(b, '{'), d+1, "pfd"), v.PFDID)
	b = appendString(member(append(b, ','), d+1, "rule"), v.Row)
	b = appendArray(member(append(b, ','), d+1, "cells"), v.Cells, d+1, func(b []byte, c *table.CellRef) []byte {
		b = strconv.AppendInt(member(append(b, '{'), d+3, "row"), int64(c.Row), 10)
		b = appendString(member(append(b, ','), d+3, "column"), c.Column)
		return append(newline(b, d+2), '}')
	})
	b = appendArray(member(append(b, ','), d+1, "tuples"), v.Tuples, d+1, func(b []byte, t *int) []byte {
		return strconv.AppendInt(b, int64(*t), 10)
	})
	b = appendString(member(append(b, ','), d+1, "observed"), v.Observed)
	b = appendString(member(append(b, ','), d+1, "expected"), v.Expected)
	b = strconv.AppendBool(member(append(b, ','), d+1, "variable"), v.Variable)
	return append(newline(b, d), '}')
}

// appendArray renders xs as an array whose brackets sit at depth d: null
// for a nil slice, [] for an empty one, else one element per line.
func appendArray[T any](b []byte, xs []T, d int, elem func([]byte, *T) []byte) []byte {
	switch {
	case xs == nil:
		return append(b, "null"...)
	case len(xs) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(newline(b, d+1), &xs[i])
	}
	return append(newline(b, d), ']')
}

// newline starts a new line indented d spaces deep (the bodies nest no
// deeper than six).
func newline(b []byte, d int) []byte {
	return append(b, "\n        "[:1+d]...)
}

// member starts an object member named key (plain ASCII) on a new line
// at depth d.
func member(b []byte, d int, key string) []byte {
	return append(append(append(newline(b, d), '"'), key...), `": `...)
}

const hexDigits = "0123456789abcdef"

// appendString quotes s the way encoding/json does with HTML escaping on:
// the short escapes for \b \f \n \r \t " and \\, \u00XX for the other
// control bytes and for < > &, \ufffd for each invalid UTF-8 byte, and
// U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
