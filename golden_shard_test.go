package anmat_test

// Sharded-detection acceptance on the static golden corpus: every golden
// scenario's mined headline rule set is evaluated by sessions of one
// system per K ∈ {1,2,4,8}, and the merged violation set must be byte-identical to
// the single-engine Detect output at parallelism 1, 4, and 8 —
// the same bytes the pinned golden files render.

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	anmat "github.com/anmat/anmat"
)

func TestGoldenCorpusShardEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ctx := context.Background()
			// Mine the headline rule once, on a throwaway session.
			mineTbl, err := anmat.LoadCSV(filepath.Join("testdata", sc.csv))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := anmat.New(anmat.WithParams(sc.params))
			if err != nil {
				t.Fatal(err)
			}
			miner := sys.NewSession("golden-shard-mine", mineTbl, sc.params)
			if err := miner.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
				t.Fatal(err)
			}
			var rules []*anmat.PFD
			for _, p := range miner.Discovered {
				if p.LHS == sc.lhs && p.RHS == sc.rhs {
					rules = append(rules, p)
				}
			}
			if len(rules) == 0 {
				t.Fatalf("discovery found no %s→%s rule", sc.lhs, sc.rhs)
			}

			res, err := anmat.Detect(ctx, mineTbl, rules, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res.Violations)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
					tbl, err := anmat.LoadCSV(filepath.Join("testdata", sc.csv))
					if err != nil {
						t.Fatal(err)
					}
					shardSys, err := anmat.New(anmat.WithParams(sc.params), anmat.WithShards(k))
					if err != nil {
						t.Fatal(err)
					}
					sess := shardSys.NewSession("golden-shard", tbl, sc.params)
					sess.UseRules(rules)
					if _, err := sess.RunDetection(ctx); err != nil {
						t.Fatal(err)
					}
					eng, err := sess.Stream()
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(eng.Violations())
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Errorf("k=%d violations not byte-identical to single-engine detection", k)
					}
				})
			}
		})
	}
}

// TestSkewedFixtureShardEquivalence runs the pinned hot-block fixture
// (roughly half its rows share one block key, so one shard hosts most of
// the table) through sharded sessions: imbalance must show up in the
// stats while the merged violation set stays exact.
func TestSkewedFixtureShardEquivalence(t *testing.T) {
	ctx := context.Background()
	params := anmat.Params{MinCoverage: 0.05, AllowedViolations: 0.3}
	sys, err := anmat.New(anmat.WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	mineTbl, err := anmat.LoadCSV(filepath.Join("testdata", "phone_state_skewed.csv"))
	if err != nil {
		t.Fatal(err)
	}
	miner := sys.NewSession("skew-mine", mineTbl, params)
	if err := miner.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
		t.Fatal(err)
	}
	var rules []*anmat.PFD
	for _, p := range miner.Discovered {
		if p.LHS == "phone" && p.RHS == "state" {
			rules = append(rules, p)
		}
	}
	if len(rules) == 0 {
		t.Fatal("discovery found no phone→state rule on the skewed fixture")
	}
	res, err := anmat.Detect(ctx, mineTbl, rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res.Violations)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			tbl, err := anmat.LoadCSV(filepath.Join("testdata", "phone_state_skewed.csv"))
			if err != nil {
				t.Fatal(err)
			}
			shardSys, err := anmat.New(anmat.WithParams(params), anmat.WithShards(k))
			if err != nil {
				t.Fatal(err)
			}
			sess := shardSys.NewSession("skewed", tbl, params)
			sess.UseRules(rules)
			if _, err := sess.RunDetection(ctx); err != nil {
				t.Fatal(err)
			}
			eng, err := sess.Stream()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(eng.Violations())
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("k=%d skewed violations not byte-identical to single-engine detection", k)
			}
			// The fixture's hot block should leave the shards visibly
			// imbalanced (one shard hosting well over its uniform share).
			st := sess.EngineStats()
			if st.Kind != "sharded" || st.Sharded == nil {
				t.Fatalf("engine stats = %+v", st)
			}
			maxRows := 0
			for _, ps := range st.Sharded.PerShard {
				if ps.Rows > maxRows {
					maxRows = ps.Rows
				}
			}
			if uniform := tbl.NumRows() / k; maxRows <= uniform {
				t.Errorf("k=%d: expected a hot shard above the uniform share %d, max is %d", k, uniform, maxRows)
			}
		})
	}
}
