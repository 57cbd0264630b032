package core

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

func shardTestTable() *table.Table {
	return table.MustFromRows("Phone", []string{"phone", "state"}, [][]string{
		{"8501234567", "FL"},
		{"8507654321", "CA"}, // violates the constant rule
		{"2121234567", "NY"},
		{"2127654321", "NJ"}, // conflicts with row 2 under the variable rule
	})
}

func shardTestRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("Phone", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
}

func mustJSONStr(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSessionShardsResolution pins where a session's topology comes
// from: the system alone — its worker count, else its Shards, never
// below 1.
func TestSessionShardsResolution(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), SystemConfig{Shards: 4})
	if got := sys.NewSession("p", shardTestTable(), DefaultParams()).Shards(); got != 4 {
		t.Fatalf("system shards: %d", got)
	}
	plain := NewSystemWith(docstore.NewMem(), DefaultSystemConfig()).NewSession("p", shardTestTable(), DefaultParams())
	if got := plain.Shards(); got != 1 {
		t.Fatalf("floor: %d", got)
	}
	remote := NewSystemWith(docstore.NewMem(), SystemConfig{Shards: 4, Workers: []string{"http://a", "http://b"}})
	if got := remote.NewSession("p", shardTestTable(), DefaultParams()).Shards(); got != 2 {
		t.Fatalf("workers: %d", got)
	}
}

// TestShardedSessionStreamAndRepairs drives the full session surface —
// Stream, ApplyDeltas, RunRepairs, ApplyRepairs, Confirm-triggered
// rebuild — through a sharded coordinator and checks the violation set
// against an unsharded twin session at every step.
func TestShardedSessionStreamAndRepairs(t *testing.T) {
	ctx := context.Background()
	se := NewSystemWith(docstore.NewMem(), SystemConfig{Shards: 4}).NewSession("p", shardTestTable(), DefaultParams())
	se.UseRules(shardTestRules())
	twin := NewSystemWith(docstore.NewMem(), DefaultSystemConfig()).NewSession("p", shardTestTable(), DefaultParams())
	twin.UseRules(shardTestRules())
	for _, s := range []*Session{se, twin} {
		if _, err := s.RunDetection(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if mustJSONStr(t, se.Violations) != mustJSONStr(t, twin.Violations) {
		t.Fatal("sharded detection diverged at baseline")
	}

	eng, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.(*shard.Coordinator); !ok {
		t.Fatalf("sharded session built %T", eng)
	}
	if st := se.EngineStats(); st.Kind != "sharded" || st.Shards != 4 {
		t.Fatalf("engine stats = %+v", st)
	}

	batch := stream.Batch{stream.AppendRows([]string{"8509990000", "TX"})}
	for _, s := range []*Session{se, twin} {
		if _, err := s.ApplyDeltasCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if mustJSONStr(t, se.Violations) != mustJSONStr(t, twin.Violations) {
		t.Fatal("sharded deltas diverged")
	}

	// Repairs route through the coordinator as cell deltas.
	rs, err := se.RunRepairs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("expected repair suggestions")
	}
	twinRs, err := twin.RunRepairs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, diff, err := se.ApplyRepairs(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if diff == nil || n == 0 {
		t.Fatalf("ApplyRepairs = %d changed, diff %v", n, diff)
	}
	if _, _, err := twin.ApplyRepairs(context.Background(), twinRs); err != nil {
		t.Fatal(err)
	}
	if mustJSONStr(t, se.Violations) != mustJSONStr(t, twin.Violations) {
		t.Fatal("sharded repairs diverged")
	}

	// A rule-set change rebuilds the coordinator on the continued
	// timeline.
	se.UseRules(shardTestRules())
	eng2, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if eng2 == eng {
		t.Fatal("rule change did not rebuild the engine")
	}
	if eng2.Seq() != eng.Seq()+1 {
		t.Fatalf("rebuilt engine seq %d, want %d", eng2.Seq(), eng.Seq()+1)
	}
}
