package core

import (
	"context"
	"net/http/httptest"
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
// constraint: the first distributed session owns the workers, a second
// session is refused (its engine would silently replace the first
// session's shard state), and the owner may rebuild its engine.
func TestDistributedSessionWorkerClaims(t *testing.T) {
	urls := startClusterWorkers(t, 2)
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{
		Params:  DefaultParams(),
		Workers: urls,
	})

	se := sys.NewSession("p", shardTestTable(), DefaultParams())
	se.UseRules(shardTestRules())
	if _, err := se.Stream(); err != nil {
		t.Fatal(err)
	}

	other := sys.NewSession("p", shardTestTable(), DefaultParams())
	other.UseRules(shardTestRules())
	if _, err := other.Stream(); err == nil {
		t.Fatal("second distributed session built an engine over claimed workers")
	}

	// The claiming session itself can rebuild (rule change → new engine).
	se.UseRules(shardTestRules())
	if _, err := se.Stream(); err != nil {
		t.Fatalf("claiming session's engine rebuild refused: %v", err)
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
