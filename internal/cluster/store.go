// The coordinator's failover store: a snapshot of the global table at
// coordinator construction plus a write-ahead log (a wal.Log — the same
// implementation the session durability layer journals into) of every
// batch since. Each batch is journaled before any worker sees it, so
// losing a worker never loses the batch.
//
// The store serves worker failover within one coordinator's lifetime,
// not coordinator restarts: CreateStore replaces it at every coordinator
// construction, and a restarted session is rebuilt from the session
// store (internal/persist) instead. That is why internal/core never asks
// it to fsync — nothing reads it after the process that wrote it died.
//
// Rehydrating a shard is a replay, not a re-route: a row's home shard is
// its global index mod K *at insertion time*, so current cell values
// alone cannot reconstruct placement. RehydrateBoot decodes the
// snapshot, rebuilds a shard.Translator over it, feeds it the WAL
// batches (discarding the translated operations — only the bookkeeping
// matters), and renders the dead shard's boot state from the result.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/wal"
)

// storeSnapshot is the serialized baseline the WAL replays over.
type storeSnapshot struct {
	Seq int64 `json:"seq"`
	K   int   `json:"k"`
	// Table is the binary table snapshot (table.EncodeBinaryBytes),
	// base64 via encoding/json.
	Table []byte     `json:"table"`
	Rules []*pfd.PFD `json:"rules"`
}

// Store is the coordinator's snapshot + WAL directory.
type Store struct {
	dir   string
	fsync bool
	log   *wal.Log
}

const (
	snapName = "cluster.snap"
	walName  = "cluster.wal"
)

// CreateStore initializes dir as a fresh failover store: snapshots the
// table, rules, shard count k, and base sequence, and empties the WAL.
// Any previous store in dir is replaced. With fsync the snapshot, the
// WAL's directory entry, and every append are synced.
func CreateStore(dir string, t *table.Table, rules []*pfd.PFD, k int, seq int64, fsync bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster store: %w", err)
	}
	blob, err := json.Marshal(storeSnapshot{Seq: seq, K: k, Table: t.EncodeBinaryBytes(), Rules: rules})
	if err != nil {
		return nil, fmt.Errorf("cluster store: encode snapshot: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, snapName), blob, fsync); err != nil {
		return nil, fmt.Errorf("cluster store: %w", err)
	}
	l, err := wal.Open(filepath.Join(dir, walName), fsync)
	if err != nil {
		return nil, fmt.Errorf("cluster store: %w", err)
	}
	if err := l.Reset(); err != nil {
		l.Close()
		return nil, fmt.Errorf("cluster store: %w", err)
	}
	return &Store{dir: dir, fsync: fsync, log: l}, nil
}

// Append journals one batch, write-ahead of any worker seeing it. An
// error fails the append — the coordinator must not apply a batch it
// cannot replay — and rolls the log back so no partial record strands
// the batches journaled after it.
func (st *Store) Append(ctx context.Context, seq int64, batch stream.Batch) error {
	ctx, endSpan := obs.StartSpan(ctx, "cluster.wal.append")
	t0 := time.Now()
	b, err := wal.Encode(wal.Record{Seq: seq, Batch: batch})
	if err == nil {
		obs.SetSpanAttrs(ctx, "seq", strconv.FormatInt(seq, 10), "wal_bytes", strconv.Itoa(len(b)))
		err = st.log.Commit(b, st.fsync)
	}
	if err != nil {
		err = fmt.Errorf("cluster store: seq %d: %w", seq, err)
		endSpan(err)
		return err
	}
	endSpan(nil)
	clusterWALBytes.Add(float64(len(b)))
	clusterWALAppendDur.Observe(time.Since(t0).Seconds())
	return nil
}

// Close releases the WAL file handle.
func (st *Store) Close() error {
	if st.log == nil {
		return nil
	}
	err := st.log.Close()
	st.log = nil
	return err
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// load reads the snapshot and the WAL timeline: the batches contiguous
// from snapshot seq+1. A torn tail or a gap ends the timeline there
// (batches after an unrecoverable hole could not have been acknowledged
// against a recovered state) and is trimmed off the file.
func (st *Store) load() (storeSnapshot, []wal.Record, error) {
	blob, err := os.ReadFile(filepath.Join(st.dir, snapName))
	if err != nil {
		return storeSnapshot{}, nil, fmt.Errorf("cluster store: %w", err)
	}
	var snap storeSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return storeSnapshot{}, nil, fmt.Errorf("cluster store: decode snapshot: %w", err)
	}
	recs, err := wal.Replay(filepath.Join(st.dir, walName), snap.Seq)
	if err != nil {
		return storeSnapshot{}, nil, fmt.Errorf("cluster store: %w", err)
	}
	return snap, recs, nil
}

// RehydrateBoot reconstructs shard s's current boot state by replaying
// the snapshot plus the WAL through a fresh placement translator.
// It also returns the rule set and the sequence number the state
// corresponds to.
func (st *Store) RehydrateBoot(s int) (shard.NodeBoot, []*pfd.PFD, int64, error) {
	snap, recs, err := st.load()
	if err != nil {
		return shard.NodeBoot{}, nil, 0, err
	}
	if s < 0 || s >= snap.K {
		return shard.NodeBoot{}, nil, 0, fmt.Errorf("cluster store: shard %d of %d", s, snap.K)
	}
	t, err := table.DecodeBinaryBytes(snap.Table)
	if err != nil {
		return shard.NodeBoot{}, nil, 0, fmt.Errorf("cluster store: decode table: %w", err)
	}
	tr, err := shard.NewTranslator(t, snap.Rules, snap.K)
	if err != nil {
		return shard.NodeBoot{}, nil, 0, fmt.Errorf("cluster store: %w", err)
	}
	seq := snap.Seq
	for _, rec := range recs {
		// Only the placement bookkeeping matters; the translated per-shard
		// operations are discarded.
		if _, _, err := tr.Translate(rec.Batch); err != nil {
			return shard.NodeBoot{}, nil, 0, fmt.Errorf("cluster store: replay batch %d: %w", rec.Seq, err)
		}
		seq = rec.Seq
	}
	return tr.Boot(s), snap.Rules, seq, nil
}
