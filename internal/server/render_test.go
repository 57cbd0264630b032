package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/race"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// referenceDiff is the definition the diff renderer is held to: the
// change list and the map writeJSON renders through encoding/json.
func referenceDiff(sessionID string, d *stream.Diff, limit, offset int) []byte {
	type change struct {
		Kind      string        `json:"kind"`
		Violation pfd.Violation `json:"violation"`
	}
	changes := make([]change, 0, len(d.Added)+len(d.Removed))
	for _, v := range d.Added {
		changes = append(changes, change{Kind: "added", Violation: v})
	}
	for _, v := range d.Removed {
		changes = append(changes, change{Kind: "removed", Violation: v})
	}
	offset = min(offset, len(changes))
	page := changes[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return referenceBody(map[string]any{
		"session":  sessionID,
		"seq":      d.Seq,
		"rows":     d.Rows,
		"reset":    d.Reset,
		"added":    len(d.Added),
		"removed":  len(d.Removed),
		"count":    len(changes),
		"offset":   offset,
		"returned": len(page),
		"changes":  page,
	})
}

// referencePage is the same definition for a violation page.
func referencePage(sessionID string, vs []pfd.Violation, limit, offset int) []byte {
	page, offset := paginate(vs, limit, offset)
	return referenceBody(map[string]any{
		"session":    sessionID,
		"count":      len(vs),
		"offset":     offset,
		"returned":   len(page),
		"violations": page,
	})
}

func referenceBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// served runs a body writer against a recorder and returns the body,
// failing unless it was labelled JSON.
func served(t *testing.T, write func(http.ResponseWriter)) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	write(rec)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// fuzzViolations builds n violations from the fuzzer's strings and
// numbers. Successive violations cycle through nil, empty and populated
// Cells/Tuples, starting at shape; n == 0 gives a nil list when nilList.
func fuzzViolations(n int, nilList bool, shape int, rule, row, column, observed, expected string, num int) []pfd.Violation {
	if n == 0 && nilList {
		return nil
	}
	vs := make([]pfd.Violation, n)
	for i := range vs {
		v := pfd.Violation{PFDID: rule, Row: row, Observed: observed, Expected: expected, Variable: i%2 == 1}
		switch (shape + i) % 3 {
		case 1:
			v.Cells, v.Tuples = []table.CellRef{}, []int{}
		case 2:
			v.Cells = []table.CellRef{{Row: num + i, Column: column}, {Row: -num, Column: column + observed}}
			v.Tuples = []int{num, -num - i}
		}
		vs[i] = v
	}
	return vs
}

// FuzzViolationBodies holds both hand-rendered violation bodies to their
// definition, byte for byte, over arbitrary session IDs, rule IDs and
// renderings, column names, values and numbers, nil and empty lists,
// pages and resets.
func FuzzViolationBodies(f *testing.F) {
	f.Add("s1", "zips:zip->state", `(<\D{3}>)\D{2} → ⊥`, "state", "a&b", "\xff", int64(7), -3, uint8(3), uint8(2), uint8(2), uint8(1), false, uint8(2))
	f.Fuzz(func(t *testing.T, session, rule, row, column, observed, expected string, seq int64, num int, added, removed, limit, offset uint8, reset bool, shape uint8) {
		d := &stream.Diff{
			Seq:     seq,
			Rows:    num,
			Reset:   reset,
			Added:   fuzzViolations(int(added%24), shape&1 == 1, int(shape>>1), rule, row, column, observed, expected, num),
			Removed: fuzzViolations(int(removed%24), shape&1 == 1, int(shape>>2), expected, row, observed, column, rule, -num),
		}
		lim, off := int(limit%16), int(offset%32)
		got := served(t, func(w http.ResponseWriter) { writeDiff(w, session, d, lim, off) })
		if want := referenceDiff(session, d, lim, off); !bytes.Equal(got, want) {
			t.Fatalf("diff body differs from encoding/json's:\n got %q\nwant %q", got, want)
		}
		got = served(t, func(w http.ResponseWriter) { writeViolationPage(w, session, d.Added, lim, off) })
		if want := referencePage(session, d.Added, lim, off); !bytes.Equal(got, want) {
			t.Fatalf("page body differs from encoding/json's:\n got %q\nwant %q", got, want)
		}
	})
}

// benchDiff is a diff of n changes shaped like a renumbering delete's:
// variable pair violations of one rule, three in four of them added and
// the rest removed.
func benchDiff(n int) *stream.Diff {
	d := &stream.Diff{Seq: 42, Rows: 50000}
	for i := 0; i < n; i++ {
		v := pfd.Violation{
			PFDID:    "phones:phone->state",
			Row:      `(<\D{3}>)\D{7} → ⊥`,
			Cells:    []table.CellRef{{Row: 10 * i, Column: "state"}, {Row: 10*i + 7, Column: "state"}},
			Tuples:   []int{10 * i, 10*i + 7},
			Observed: "CA",
			Expected: "NV",
			Variable: true,
		}
		if i%4 == 0 {
			d.Removed = append(d.Removed, v)
		} else {
			d.Added = append(d.Added, v)
		}
	}
	return d
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { return len(b), nil }
func (w *discard) WriteHeader(int)             {}

// TestDiffRenderAllocs gates the renderer's allocations: once the pool
// holds a buffer large enough, a 200-change diff costs the Content-Type
// header value and nothing per change.
func TestDiffRenderAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector disables sync.Pool reuse")
	}
	d, w := benchDiff(200), &discard{h: http.Header{}}
	writeDiff(w, "s1", d, 0, 0)
	if n := testing.AllocsPerRun(100, func() { writeDiff(w, "s1", d, 0, 0) }); n > 2 {
		t.Fatalf("rendering a 200-change diff: %.0f allocations, want ≤ 2", n)
	}
}

// BenchmarkWriteDiff renders diffs of the sizes a ?since= poll serves:
// a few batches' worth, and one spanning a renumbering delete or two.
func BenchmarkWriteDiff(b *testing.B) {
	for _, n := range []int{40, 200, 800} {
		b.Run(fmt.Sprintf("changes=%d", n), func(b *testing.B) {
			d, w := benchDiff(n), &discard{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeDiff(w, "s1", d, 0, 0)
			}
		})
	}
}
