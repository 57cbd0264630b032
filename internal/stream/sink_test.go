package stream

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/anmat/anmat/internal/table"
)

// TestSinkWriteAhead pins the journal hook contract: the sink sees every
// applied batch with the seq it receives, before mutation; a sink error
// aborts the batch untouched; a detached sink is bypassed. Its second
// half drives the Sequencer alone, through a fake step.
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
	sink := func(_ context.Context, seq int64, batch Batch) error {
		if fail {
			return fmt.Errorf("disk full")
		}
		calls = append(calls, call{seq, tbl.NumRows()})
		return nil
	}
	e.SetSink(sink)

	if _, err := e.ApplyCtx(context.Background(), Batch{AppendRows([]string{"90003", "SF", "85125", "CA"})}); err != nil {
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
	if _, err := e.ApplyCtx(context.Background(), Batch{AppendRows([]string{"90004", "SD", "85126", "CA"})}); err == nil {
		t.Fatal("ApplyCtx should surface the sink error")
	}
	if tbl.NumRows() != 3 || e.Seq() != 1 {
		t.Errorf("failed journal mutated state: %d rows, seq %d", tbl.NumRows(), e.Seq())
	}

	// A detached sink is bypassed entirely: the batch advances the seq and
	// the Since log like any other.
	e.SetSink(nil)
	if _, err := e.ApplyCtx(context.Background(), Batch{AppendRows([]string{"90004", "SD", "85126", "CA"})}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Errorf("a detached sink was invoked: %+v", calls)
	}
	if e.Seq() != 2 || tbl.NumRows() != 4 {
		t.Errorf("detached sink: seq %d rows %d, want 2/4", e.Seq(), tbl.NumRows())
	}

	// An invalid batch is rejected before it reaches the sink.
	fail = false
	e.SetSink(sink)
	if _, err := e.ApplyCtx(context.Background(), Batch{AppendRows([]string{"too", "short"})}); err == nil {
		t.Fatal("invalid batch should fail")
	}
	if len(calls) != 1 {
		t.Errorf("invalid batch reached the sink: %+v", calls)
	}

	// The protocol with a fake step that appends the batch's rows and
	// fails on demand.
	var sunk, stepped []int64
	var sinkErr, stepErr error
	seqr := NewSequencer(tbl, 7, 0, nil, func(_ context.Context, seq int64, batch Batch) (*Diff, error) {
		stepped = append(stepped, seq)
		if stepErr != nil {
			return nil, stepErr
		}
		for _, r := range batch[0].Rows {
			_ = tbl.Append(r)
		}
		return &Diff{Seq: seq, Rows: tbl.NumRows()}, nil
	})
	seqr.SetSink(func(_ context.Context, seq int64, _ Batch) error {
		if sinkErr != nil {
			return sinkErr
		}
		sunk = append(sunk, seq)
		return nil
	})
	apply := func() error {
		_, err := seqr.ApplyCtx(context.Background(), Batch{AppendRows([]string{"90005", "SJ", "85127", "CA"})})
		return err
	}
	// A sink error applies nothing and does not poison.
	sinkErr = fmt.Errorf("disk full")
	rows := tbl.NumRows()
	if err := apply(); err == nil || errors.Is(err, ErrNotApplied) {
		t.Fatalf("sink error: err = %v, want a journaling error that is not ErrNotApplied", err)
	}
	if len(stepped) != 0 || tbl.NumRows() != rows || seqr.Seq() != 7 || seqr.Stale() {
		t.Fatalf("sink error: step ran %v, %d rows, seq %d, stale %v", stepped, tbl.NumRows(), seqr.Seq(), seqr.Stale())
	}
	sinkErr = nil
	if err := apply(); err != nil || seqr.Seq() != 8 || tbl.NumRows() != rows+1 {
		t.Fatalf("after a sink error the next batch: err %v, seq %d, %d rows", err, seqr.Seq(), tbl.NumRows())
	}
	// A validation error never reaches the sink.
	if _, err := seqr.ApplyCtx(context.Background(), Batch{UpdateCell(0, "nope", "x")}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if len(sunk) != 1 || len(stepped) != 1 || seqr.Stale() {
		t.Fatalf("invalid batch: sink saw %v, step %v, stale %v", sunk, stepped, seqr.Stale())
	}
	// A failing step poisons the stream without advancing Seq: batch 9
	// reaches the sink once, and the stream refuses every later batch.
	stepErr = fmt.Errorf("shard 1 gone")
	if err := apply(); !errors.Is(err, ErrNotApplied) {
		t.Fatalf("failing step: err = %v, want ErrNotApplied", err)
	}
	stepErr = nil
	if err := apply(); err == nil {
		t.Fatal("a poisoned stream applied a batch")
	}
	if fmt.Sprint(sunk) != "[8 9]" || seqr.Seq() != 8 || !seqr.Stale() {
		t.Fatalf("after a failing step: sink saw %v, seq %d, stale %v; want [8 9], 8, true", sunk, seqr.Seq(), seqr.Stale())
	}
}
