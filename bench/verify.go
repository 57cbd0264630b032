// Output verification: every response a workload relies on is checked
// against an in-process reference — a fresh detect.DetectAllContext over
// the table the script has produced (invariant 1), rendered with the
// server's own response shape so the comparison is on bytes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/eval"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// refViolations runs a full detection over the model's current rows.
func refViolations(m *model, rules []*pfd.PFD) ([]pfd.Violation, error) {
	t, err := table.FromRows(m.name, m.columns, m.rows)
	if err != nil {
		return nil, err
	}
	res, err := detect.New(t, detect.Options{}).DetectAllContext(context.Background(), rules, 0)
	if err != nil {
		return nil, err
	}
	return res.Violations, nil
}

func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		panic(err) // violations and counts always encode
	}
	return buf.Bytes()
}

// violationsBody renders GET violations?limit=&offset= exactly as
// server.apiViolations does.
func violationsBody(session string, vs []pfd.Violation, limit, offset int) []byte {
	total := len(vs)
	if offset > total {
		offset = total
	}
	page := vs[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return indentJSON(map[string]any{
		"session":    session,
		"count":      total,
		"offset":     offset,
		"returned":   len(page),
		"violations": page,
	})
}

// diffChange and diffBody render a violation diff exactly as
// server.writeDiff does.
type diffChange struct {
	Kind      string        `json:"kind"`
	Violation pfd.Violation `json:"violation"`
}

func diffBody(session string, d *stream.Diff, limit, offset int) []byte {
	changes := make([]diffChange, 0, len(d.Added)+len(d.Removed))
	for _, v := range d.Added {
		changes = append(changes, diffChange{"added", v})
	}
	for _, v := range d.Removed {
		changes = append(changes, diffChange{"removed", v})
	}
	if offset > len(changes) {
		offset = len(changes)
	}
	page := changes[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return indentJSON(map[string]any{
		"session":  session,
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

// diffResponse is the part of a diff response a polling client reads.
type diffResponse struct {
	Seq     int64        `json:"seq"`
	Reset   bool         `json:"reset"`
	Count   int          `json:"count"`
	Changes []diffChange `json:"changes"`
}

// folded is a polling client's image of a session's violation set,
// maintained only from `violations?since=` responses.
type folded struct {
	cursor int64
	set    map[string]pfd.Violation
}

func newFolded(seq int64, vs []pfd.Violation) *folded {
	f := &folded{cursor: seq, set: make(map[string]pfd.Violation, len(vs))}
	for _, v := range vs {
		f.set[v.Key()] = v
	}
	return f
}

// fold applies one since= response: removals first, then additions (a
// violation whose rendering changed appears in both); a reset replaces
// the whole set.
func (f *folded) fold(r *diffResponse) {
	if r.Reset {
		f.set = make(map[string]pfd.Violation, len(r.Changes))
	}
	for _, c := range r.Changes {
		if c.Kind == "removed" {
			delete(f.set, c.Violation.Key())
		}
	}
	for _, c := range r.Changes {
		if c.Kind == "added" {
			f.set[c.Violation.Key()] = c.Violation
		}
	}
	f.cursor = r.Seq
}

func (f *folded) violations() []pfd.Violation {
	out := make([]pfd.Violation, 0, len(f.set))
	for _, v := range f.set {
		out = append(out, v)
	}
	detect.SortViolations(out)
	return out
}

// sameBytes reports a mismatch with enough context to find it.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		if lo > len(b) {
			return nil
		}
		return b[lo:hi]
	}
	return fmt.Errorf("%s: %d bytes, want %d; first difference at byte %d:\n got …%s…\nwant …%s…",
		what, len(got), len(want), i, clip(got), clip(want))
}

// f1Rows scores the rows named by the violations against the dirty rows.
func f1Rows(vs []pfd.Violation, truth map[int]bool) float64 {
	flagged := make(map[int]bool)
	for _, v := range vs {
		for _, tu := range v.Tuples {
			flagged[tu] = true
		}
	}
	return eval.Score(flagged, truth).F1
}
