package stream

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
)

// ErrNotApplied marks a batch that passed validation and the write-ahead
// sink but whose step failed: the journal may hold it and memory part of
// it, so the caller should resync (Since) rather than resubmit it.
var ErrNotApplied = errors.New("not applied")

// Step is an owner's half of the batch protocol: it applies one batch the
// Sequencer has validated and journaled, which will receive seq, and
// returns the batch's diff (ending in its Set's Diff). An error means the
// owner's state can no longer be trusted.
type Step func(ctx context.Context, seq int64, batch Batch) (*Diff, error)

// Sequencer is the write-ahead batch protocol both incremental engines
// share: Engine, over one table, and the sharding coordinator, over K
// shards, embed one and supply only their Step. Under one lock ApplyCtx
// refuses a stale or poisoned stream, validates the batch, hands it to
// the sink with the sequence number it will receive, calls the step, and
// numbers and logs the step's diff.
//
// Its one rule: once the sink has taken batch n, the batch is applied or
// the stream is poisoned — Stale reports true and every later batch is
// refused until the holder rebuilds — so no sequence number reaches the
// sink twice.
type Sequencer struct {
	mu       sync.Mutex
	t        *table.Table
	version  int64 // table version after the stream's last own mutation
	seq      int64
	log      *DiffLog
	sink     func(ctx context.Context, seq int64, batch Batch) error
	poisoned bool // a step failed: the owner's state is no longer trusted
	step     Step
	// traced opens the engine's "stream.apply" span around the protocol,
	// sink included; the coordinator's step opens its own fan-out spans.
	traced bool
}

// NewSequencer starts the protocol over the table at sequence number seq,
// whose violation set — in detect.SortViolations order, owned by the log
// from here on — is set. logCap bounds the retained per-batch diffs
// (0 = DefaultLogCap).
func NewSequencer(t *table.Table, seq int64, logCap int, set []pfd.Violation, step Step) *Sequencer {
	return &Sequencer{t: t, version: t.Version(), seq: seq, log: NewDiffLog(logCap, set), step: step}
}

// Stale reports whether the table was mutated outside the stream (e.g. a
// direct detect.Apply) since its last batch, or a step failed and
// poisoned it. A stale stream refuses further batches; rebuild it.
func (s *Sequencer) Stale() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned || s.t.Version() != s.version
}

// Seq returns the sequence number of the last applied batch.
func (s *Sequencer) Seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// SetSink installs the write-ahead journal hook: a function ApplyCtx
// calls — under the lock, after validating the batch, before the step —
// with the batch and the sequence number it is about to receive. A sink
// error aborts the batch with nothing applied, so a batch is never in
// memory without being durably journaled first. A recovery replaying the
// journal applies before it installs a sink. Pass nil to detach.
func (s *Sequencer) SetSink(fn func(ctx context.Context, seq int64, batch Batch) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = fn
}

// Violations returns the maintained violation set in the detection
// engine's total order — byte-identical to a fresh full detection over
// the current table. It is the log's shared snapshot: free to return,
// not to be modified by the caller, never written by a later batch.
func (s *Sequencer) Violations() []pfd.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Snapshot()
}

// Since merges the retained per-batch diffs after the cursor into one net
// diff (see DiffLog.Merge): when the cursor predates the retained log the
// full shared snapshot comes back with Reset set; a cursor ahead of the
// stream is an error.
func (s *Sequencer) Since(seq int64) (*Diff, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Merge(seq, s.seq, s.t.NumRows())
}

// Locked runs fn under the batch lock with the sequence number of the
// last applied batch: how an owner reads the state its step maintains.
func (s *Sequencer) Locked(fn func(seq int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.seq)
}

// ApplyCtx validates the batch, journals it through the sink (when one is
// set), applies it through the owner's step, and returns the violation
// diff. On a validation or journaling error nothing is applied and the
// stream stays usable; a step error poisons it and wraps ErrNotApplied.
// The spans join the context's active trace.
func (s *Sequencer) ApplyCtx(ctx context.Context, batch Batch) (*Diff, error) {
	endSpan := func(error) {}
	if s.traced {
		ctx, endSpan = obs.StartSpan(ctx, "stream.apply")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	diff, err := s.apply(ctx, batch)
	endSpan(err)
	return diff, err
}

func (s *Sequencer) apply(ctx context.Context, batch Batch) (*Diff, error) {
	if s.poisoned || s.t.Version() != s.version {
		return nil, errors.New("stream: stale (the table was mutated outside the stream, or an earlier batch was not applied); rebuild it")
	}
	if err := ValidateBatch(s.t, batch); err != nil {
		return nil, fmt.Errorf("stream: invalid batch: %w", err)
	}
	seq := s.seq + 1
	if s.traced {
		obs.SetSpanAttrs(ctx, "seq", strconv.FormatInt(seq, 10), "ops", strconv.Itoa(len(batch)))
	}
	if s.sink != nil {
		if err := s.sink(ctx, seq, batch); err != nil {
			return nil, fmt.Errorf("stream: journal batch %d: %w", seq, err)
		}
	}
	diff, err := s.step(ctx, seq, batch)
	if err != nil {
		s.poisoned = true
		return nil, fmt.Errorf("stream: batch %d %w: %w", seq, ErrNotApplied, err)
	}
	s.seq, s.version = seq, s.t.Version()
	s.log.Append(diff)
	return diff, nil
}
