// Package cluster scales sharded detection past one process: the same
// coordinator/translator machinery as internal/shard, but with each
// shard's engine living in a worker process reached over the /shard/v1
// HTTP API, and with a snapshot + write-ahead log (store.go) backing
// worker failover. The cluster Coordinator embeds shard.Coordinator, and
// through it the one stream.Sequencer batch protocol (core.Streamer); its
// merged violation sets stay byte-identical to single-engine detection at
// any worker count — the multi-process equivalence tests pin that down
// over golden corpora and randomized delta scripts, including a worker
// killed mid-script.
//
// Failover path: every batch is journaled to the store's WAL before any
// worker sees it. When a worker stops answering (request timeouts, then
// the bounded retry budget, exhausted), the coordinator rehydrates the
// dead shard's state — snapshot + WAL replayed through a fresh placement
// translator — and pushes it to a spare worker over /init. The coordinator's own
// diff log is untouched by the swap, so violations?since= cursors issued
// before the failure keep resolving exactly.
//
// A worker holds exactly one shard state, so a worker set belongs to
// exactly one coordinator at a time: booting a second coordinator over
// the same workers replaces their state, and the first coordinator is
// fenced out by epoch (its applies fail with 409 instead of silently
// corrupting the new owner's shards — see the proto.go epoch-fencing
// section). Callers that multiplex sessions over one process must give
// each live coordinator a disjoint worker set; internal/core enforces
// this with a system-level claim registry.
package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/table"
)

// Options tunes New. The zero value journals to a temporary directory,
// uses default client timeouts/retry, and has no failover (a dead worker
// then poisons the coordinator, exactly like the in-process sharded
// engine after an unrecoverable failure).
type Options struct {
	// BaseSeq is the starting sequence number (cursor continuity; see
	// stream.NewEngineFrom).
	BaseSeq int64
	// Dir is the failover store directory. "" creates a fresh temporary
	// directory (removed on Close).
	Dir string
	// Respawn, when set, is asked for a worker base URL to take over shard
	// s once its worker stopped answering: a standby from a pool, or a
	// process the caller starts. Return "" to decline, which poisons the
	// coordinator.
	Respawn func(s int) string
	// Client tunes every worker call's timeout and retry policy.
	Client ClientOptions
}

// Coordinator is the distributed sharded engine: shard.Coordinator
// routing, merging and batch protocol, RemoteNode transport, WAL-backed
// failover.
type Coordinator struct {
	*shard.Coordinator
	store  *Store
	ownDir bool // Dir was auto-created; Close removes it
	opts   Options
}

// New builds a coordinator over the table's current contents with one
// worker per shard: len(workers) fixes K. Each worker is initialized
// over /init with its boot state (concurrently — this is the bootstrap
// detection pass, split K ways across processes), and every subsequent
// batch is WAL-journaled before fan-out.
func New(t *table.Table, rules []*pfd.PFD, workers []string, opts Options) (*Coordinator, error) {
	k := len(workers)
	if k < 1 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	if opts.Client.Epoch == "" {
		// A fresh epoch per coordinator: workers fence requests against it,
		// so a superseded coordinator (another session booting the same
		// workers, or this session rebuilding its engine) errors out instead
		// of silently mutating state it no longer owns.
		opts.Client.Epoch = newEpoch()
	}
	dir, ownDir := opts.Dir, false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "anmat-cluster-*"); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		ownDir = true
	}
	// Nothing reads the store after this process dies, so it is never
	// fsynced (see store.go).
	store, err := CreateStore(dir, t, rules, k, opts.BaseSeq, false)
	if err != nil {
		if ownDir {
			_ = os.RemoveAll(dir)
		}
		return nil, err
	}
	c := &Coordinator{store: store, ownDir: ownDir, opts: opts}
	sc, err := shard.NewWith(t, rules, k, shard.Config{
		BaseSeq: opts.BaseSeq,
		Journal: store.Append,
		NewNode: func(s int, boot shard.NodeBoot, rules []*pfd.PFD) (shard.Node, error) {
			node := NewRemoteNode(workers[s], opts.Client)
			if err := node.Init(boot, rules, opts.BaseSeq); err != nil {
				return nil, err
			}
			return node, nil
		},
		Recover: c.recoverShard,
	})
	if err != nil {
		_ = store.Close()
		if ownDir {
			_ = os.RemoveAll(dir)
		}
		return nil, err
	}
	c.Coordinator = sc
	return c, nil
}

// recoverShard is the failover hook the sharded coordinator invokes once
// a worker's retry budget is exhausted: rehydrate the shard's state from
// snapshot + WAL, ask Respawn for a replacement endpoint, and push the
// state over /init. The boot the coordinator hands us (its live
// translator's view) and the WAL replay must agree; the store is the
// durable source of truth, so it is what the replacement receives.
func (c *Coordinator) recoverShard(s int, boot shard.NodeBoot, seq int64) (shard.Node, error) {
	rboot, rules, rseq, err := c.store.RehydrateBoot(s)
	if err != nil {
		return nil, fmt.Errorf("rehydrate: %w", err)
	}
	if rseq != seq {
		return nil, fmt.Errorf("rehydrate: WAL replays to seq %d, coordinator at %d", rseq, seq)
	}
	endpoint := ""
	if c.opts.Respawn != nil {
		endpoint = c.opts.Respawn(s)
	}
	if endpoint == "" {
		return nil, fmt.Errorf("no spare worker for shard %d", s)
	}
	node := NewRemoteNode(endpoint, c.opts.Client)
	if err := node.Init(rboot, rules, rseq); err != nil {
		return nil, fmt.Errorf("init %s: %w", endpoint, err)
	}
	return node, nil
}

// newEpoch returns a fresh coordinator epoch: 8 random bytes, hex.
func newEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand practically cannot fail; a fixed marker still fences
		// better than the empty epoch (which disables the check).
		return "epoch-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Close releases the remote nodes and the failover store (removing its
// directory when it was auto-created).
func (c *Coordinator) Close() error {
	err := c.Coordinator.Close()
	if serr := c.store.Close(); err == nil {
		err = serr
	}
	if c.ownDir {
		if rerr := os.RemoveAll(c.store.Dir()); err == nil {
			err = rerr
		}
	}
	return err
}
