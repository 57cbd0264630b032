package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/cluster"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/stream"
)

// startClusterWorkers spins up n shard workers on loopback TCP and
// returns their base URLs.
func startClusterWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for s := 0; s < n; s++ {
		w := cluster.NewWorker(s, n)
		w.SetLogf(t.Logf)
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[s] = srv.URL
	}
	return urls
}

// TestDistributedSessionStream drives a session whose incremental engine
// runs over real HTTP workers and checks the violation set against an
// in-process twin at every step — the session surface cannot tell the
// transports apart.
func TestDistributedSessionStream(t *testing.T) {
	ctx := context.Background()
	urls := startClusterWorkers(t, 3)
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{
		Params:  DefaultParams(),
		Workers: urls,
	})
	se := sys.NewSession("p", shardTestTable(), DefaultParams())
	se.UseRules(shardTestRules())
	twinSys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	twin := twinSys.NewSession("p", shardTestTable(), DefaultParams())
	twin.UseRules(shardTestRules())
	for _, s := range []*Session{se, twin} {
		if _, err := s.RunDetection(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if mustJSONStr(t, se.Violations) != mustJSONStr(t, twin.Violations) {
		t.Fatal("distributed detection diverged at baseline")
	}

	if got := se.Shards(); got != 3 {
		t.Fatalf("distributed session Shards() = %d, want 3", got)
	}
	eng, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	cc, ok := eng.(*cluster.Coordinator)
	if !ok {
		t.Fatalf("distributed session built %T", eng)
	}
	defer cc.Close()
	if st := se.EngineStats(); st.Kind != "cluster" || st.Shards != 3 {
		t.Fatalf("engine stats = %+v", st)
	}

	batch := stream.Batch{
		stream.AppendRows([]string{"8509990000", "TX"}, []string{"2125550000", "NY"}),
		stream.UpdateCell(1, "state", "FL"),
	}
	for _, s := range []*Session{se, twin} {
		if _, err := s.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if mustJSONStr(t, se.Violations) != mustJSONStr(t, twin.Violations) {
		t.Fatal("distributed deltas diverged")
	}
}

// TestDistributedSessionWorkerClaims pins the one-session-per-worker-set
// constraint and where it bites: detection boots the engine, so the first
// distributed session to detect owns the workers, a second session is
// refused at its detection (an upload), naming the owner — its engine
// would silently replace the first session's shard state — and the owner
// may rebuild its engine, closing the coordinator it replaces. Closing
// the owner frees the workers and its failover store.
func TestDistributedSessionWorkerClaims(t *testing.T) {
	ctx := context.Background()
	t.Setenv("TMPDIR", t.TempDir()) // where the coordinators' failover stores go
	stores := func() int {
		m, _ := filepath.Glob(filepath.Join(os.TempDir(), "anmat-cluster-*"))
		return len(m)
	}
	urls := startClusterWorkers(t, 2)
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{
		Params:  DefaultParams(),
		Workers: urls,
	})

	se := sys.NewSession("p", shardTestTable(), DefaultParams())
	se.UseRules(shardTestRules())
	if _, err := se.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	if st := se.EngineStats(); st.Kind != "cluster" {
		t.Fatalf("detection left engine kind %q, want the cluster coordinator it booted", st.Kind)
	}

	other := sys.NewSession("p", shardTestTable(), DefaultParams())
	other.UseRules(shardTestRules())
	_, err := other.RunDetection(ctx)
	if want := "the workers already serve session " + se.ID + "'s shards"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("second distributed session's detection: %v, want a refusal naming %s", err, se.ID)
	}
	if other.DetectionRan() || other.EngineStats().Kind != "none" {
		t.Fatal("the refused detection left the second session detected or holding an engine")
	}

	// The claiming session itself can rebuild (rule change → new engine).
	se.UseRules(shardTestRules())
	if _, err := se.Stream(); err != nil {
		t.Fatalf("claiming session's engine rebuild refused: %v", err)
	}
	if n := stores(); n != 1 {
		t.Fatalf("%d failover stores after a rebuild, want the live coordinator's one", n)
	}

	se.Close()
	if n := stores(); n != 0 {
		t.Fatalf("%d failover stores after the owner closed, want none", n)
	}
	if _, err := other.RunDetection(ctx); err != nil {
		t.Fatalf("detection after the owner closed: %v", err)
	}
	other.Close()
}

// failingCheckpoints is a persister whose checkpoints fail while fail is
// set; it journals nothing.
type failingCheckpoints struct{ fail bool }

func (p *failingCheckpoints) Journal(context.Context, string, int64, stream.Batch) error { return nil }
func (p *failingCheckpoints) CompactionDue(string) bool                                  { return false }
func (p *failingCheckpoints) Checkpoint(*SessionSnapshot) error {
	if p.fail {
		return errors.New("disk full")
	}
	return nil
}

// TestDistributedCheckpointFailureDropsTheEngine: a replacement engine
// whose baseline checkpoint fails has already booted the workers under its
// own epoch, so the coordinator it would have replaced is dead as well.
// Detection fails leaving the violations as they were and no engine; put
// the old rules back (as a failed confirm does) and the next delta boots
// a coordinator again, on the same timeline, and is applied.
func TestDistributedCheckpointFailureDropsTheEngine(t *testing.T) {
	ctx := context.Background()
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{
		Params:  DefaultParams(),
		Workers: startClusterWorkers(t, 2),
	})
	se := sys.NewSession("p", shardTestTable(), DefaultParams())
	rules := shardTestRules()
	se.UseRules(rules)
	if _, err := se.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(se.Close)
	before := mustJSONStr(t, se.Violations)
	p := &failingCheckpoints{fail: true}
	se.SetPersist(p)

	se.UseRules(shardTestRules()) // a rule change: detection boots a replacement
	if _, err := se.RunDetection(ctx); err == nil {
		t.Fatal("detection succeeded with its baseline checkpoint failing")
	}
	if se.DetectionCurrent() || se.EngineStats().Kind != "none" {
		t.Fatalf("a failed checkpoint left engine %q in place", se.EngineStats().Kind)
	}
	if got := mustJSONStr(t, se.Violations); got != before {
		t.Fatalf("a failed detection changed the violations:\n got %s\nwant %s", got, before)
	}

	se.UseRules(rules)
	p.fail = false
	diff, err := se.ApplyDeltasCtx(ctx, stream.Batch{stream.UpdateCell(1, "state", "FL")})
	if err != nil {
		t.Fatalf("delta after the failed checkpoint: %v", err)
	}
	// Seq 0 was the first coordinator's; the failed one's base, 1, is the
	// rebuild's, and the delta is the next.
	if diff.Seq != 2 || se.EngineStats().Kind != "cluster" {
		t.Fatalf("delta at seq %d on engine %q, want seq 2 on a rebuilt cluster coordinator", diff.Seq, se.EngineStats().Kind)
	}
}

// TestClusterSparePoolClaimOnce pins the failover pool: each spare
// endpoint is handed out exactly once, and a spare that doubles as a
// primary is never handed out.
func TestClusterSparePoolClaimOnce(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{
		ClusterSpares: []string{"http://spare-a", "http://spare-b"},
	})
	if got := sys.claimSpare(0); got != "http://spare-a" {
		t.Fatalf("first claim = %q", got)
	}
	if got := sys.claimSpare(1); got != "http://spare-b" {
		t.Fatalf("second claim = %q", got)
	}
	if got := sys.claimSpare(0); got != "" {
		t.Fatalf("exhausted pool handed out %q", got)
	}

	// An endpoint listed both as a primary and as a spare already serves
	// a shard: handing it out on failover would overwrite that shard.
	sys2 := NewSystemWith(docstore.NewMem(), SystemConfig{
		Workers:       []string{"http://dual"},
		ClusterSpares: []string{"http://dual", "http://free"},
	})
	if err := sys2.claimWorkers("s1"); err != nil {
		t.Fatal(err)
	}
	if got := sys2.claimSpare(0); got != "http://free" {
		t.Fatalf("spare claim = %q, want the endpoint that is not a primary", got)
	}
}
