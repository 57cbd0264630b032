package stream

import (
	"context"
	"fmt"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// TestSinkWriteAhead pins the journal hook contract: the sink sees every
// applied batch with the seq it receives, before mutation; a sink error
// aborts the batch untouched; Replay bypasses the sink.
func TestSinkWriteAhead(t *testing.T) {
	tbl := table.MustFromRows("T", []string{"code", "city", "phone", "state"}, [][]string{
		{"90001", "LA", "85123", "FL"},
		{"90002", "NY", "85124", "FL"},
	})
	e, err := NewEngineFrom(tbl, propRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		seq  int64
		rows int // table rows observed at call time (pre-mutation)
	}
	var calls []call
	var fail bool
	e.SetSink(func(_ context.Context, seq int64, batch Batch) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		calls = append(calls, call{seq, tbl.NumRows()})
		return nil
	})

	if _, err := e.Apply(Batch{AppendRows([]string{"90003", "SF", "85125", "CA"})}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0].seq != 1 {
		t.Fatalf("calls = %+v, want one call at seq 1", calls)
	}
	if calls[0].rows != 2 {
		t.Errorf("sink ran after mutation: saw %d rows, want 2 (write-ahead)", calls[0].rows)
	}

	// A failing sink aborts the batch with nothing applied.
	fail = true
	if _, err := e.Apply(Batch{AppendRows([]string{"90004", "SD", "85126", "CA"})}); err == nil {
		t.Fatal("Apply should surface the sink error")
	}
	if tbl.NumRows() != 3 || e.Seq() != 1 {
		t.Errorf("failed journal mutated state: %d rows, seq %d", tbl.NumRows(), e.Seq())
	}

	// Replay bypasses the sink entirely (still failing — must not be hit)
	// but advances the seq and the Since log like Apply.
	if _, err := e.Replay(Batch{AppendRows([]string{"90004", "SD", "85126", "CA"})}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Errorf("Replay invoked the sink: %+v", calls)
	}
	if e.Seq() != 2 || tbl.NumRows() != 4 {
		t.Errorf("replay state: seq %d rows %d, want 2/4", e.Seq(), tbl.NumRows())
	}

	// An invalid batch is rejected before it reaches the sink.
	fail = false
	if _, err := e.Apply(Batch{AppendRows([]string{"too", "short"})}); err == nil {
		t.Fatal("invalid batch should fail")
	}
	if len(calls) != 1 {
		t.Errorf("invalid batch reached the sink: %+v", calls)
	}
}
