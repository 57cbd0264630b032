// WAL group-commit: concurrent Journal calls coalesce into shared
// write+fsync rounds. The first writer to arrive while no round is in
// flight becomes the leader; everyone arriving while the leader works
// parks on a commit ticket. The leader drains the pending queue in
// rounds — append every queued record, then fsync each touched session
// WAL once — and wakes the followers with the shared outcome. Under N
// concurrent writers this turns N fsyncs into one per touched WAL per
// round, which is where fsync-on throughput comes from (see
// BenchmarkWALJournal). It is the only commit path: a lone writer is a
// round of one.
//
// Failure semantics: if any append or fsync in a round fails, every WAL
// the round touched is rolled back to its pre-round length and every
// queued call reports the error. No caller is ever acknowledged while
// its bytes are subject to rollback, and no record survives on disk for
// a batch whose caller was told the journal failed.
//
// Locking: the leader holds every queued session's walState.mu for the
// whole round (so neither a checkpoint's segment switch nor its
// truncation can interleave with the round's appends). Only the single
// leader ever holds more than one walState.mu, and nothing that holds a
// walState.mu waits on the committer, so the multi-lock cannot deadlock.
// Followers wait holding no locks.
package persist

import (
	"fmt"
	"sync"

	"github.com/anmat/anmat/internal/wal"
)

// commitReq is one Journal call's commit ticket: the pre-encoded record,
// the session it belongs to, and the channel its caller parks on.
type commitReq struct {
	ws   *walState
	id   string
	seq  int64
	enc  []byte
	err  error
	done chan struct{}
}

// groupCommitter is the shared queue and leader election state.
type groupCommitter struct {
	mu      sync.Mutex
	pending []*commitReq
	leading bool
}

// commit submits a ticket and blocks until its round completes. The
// caller that finds no leader becomes one and drains the queue; others
// just wait.
func (m *Manager) commit(req *commitReq) error {
	m.gc.mu.Lock()
	m.gc.pending = append(m.gc.pending, req)
	if m.gc.leading {
		m.gc.mu.Unlock()
		<-req.done
		return req.err
	}
	m.gc.leading = true
	for len(m.gc.pending) > 0 {
		round := m.gc.pending
		m.gc.pending = nil
		m.gc.mu.Unlock()
		m.commitRound(round)
		m.gc.mu.Lock()
	}
	m.gc.leading = false
	m.gc.mu.Unlock()
	<-req.done // completed in the first round this leader ran
	return req.err
}

// commitRound durably applies one drained queue: append every record,
// fsync each touched WAL once, then wake every caller with the shared
// outcome.
func (m *Manager) commitRound(round []*commitReq) {
	// touched lists each session's WAL once, locked and marked at its
	// pre-round length, in first-appearance order.
	var touched []*walState
	logs := make(map[*walState]*wal.Log)
	var roundErr error
	for _, req := range round {
		l := logs[req.ws]
		if l == nil {
			req.ws.mu.Lock()
			touched = append(touched, req.ws)
			if l, roundErr = m.openLog(req.ws, req.id); roundErr != nil {
				break
			}
			if roundErr = l.Mark(); roundErr != nil {
				break
			}
			// Set before the append: bytes a failed rollback leaves count.
			req.ws.dirty[req.ws.active] = true
			logs[req.ws] = l
		}
		if err := l.Append(req.enc); err != nil {
			roundErr = fmt.Errorf("persist: journal %s seq %d: %w", req.id, req.seq, err)
			break
		}
	}
	fsyncs := 0
	if roundErr == nil && m.opts.Fsync {
		for _, ws := range touched {
			if err := logs[ws].Sync(); err != nil {
				roundErr = fmt.Errorf("persist: %w", err)
				break
			}
			fsyncs++
		}
	}
	if roundErr != nil {
		for _, l := range logs {
			_ = l.Rollback() // best-effort: recovery trims what a failed truncate leaves
		}
	} else {
		for _, req := range round {
			req.ws.WALRecords++
			walBytes.Add(float64(len(req.enc)))
		}
		groupBatches.Add(float64(len(round)))
		if fsyncs > 0 {
			groupFsyncs.Add(float64(fsyncs))
			groupBatchesPerFsync.Observe(float64(len(round)) / float64(fsyncs))
		}
	}
	for _, ws := range touched {
		ws.mu.Unlock()
	}
	for _, req := range round {
		req.err = roundErr
		close(req.done)
	}
}
