package anmat_test

// Golden delta corpus: the committed phone_state delta script replays
// through the incremental detection engine and the rendered per-batch
// violation diffs are pinned, alongside the corpus invariant that the
// maintained violation set stays byte-identical to a fresh full
// detection (at parallelism 1 and 4) after every batch. Regenerate with:
//
//	go test -run TestGoldenStreamDeltas -update

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	anmat "github.com/anmat/anmat"
)

func TestGoldenStreamDeltas(t *testing.T) {
	got := goldenStreamReplay(t, 1)
	path := filepath.Join("testdata", "golden", "phone_state_deltas.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantB, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(wantB) {
		t.Errorf("delta replay differs from %s (rerun with -update if intended):\n%s",
			path, diffLines(string(wantB), got))
	}
}

// TestGoldenStreamDeltasSharded replays the same committed delta script
// through sessions of one system per K ∈ {2,4,8} and requires the rendered
// per-batch diffs — every violation line, every count — to be
// byte-identical to the single-engine golden file. This is the corpus
// half of the sharding acceptance criterion.
func TestGoldenStreamDeltasSharded(t *testing.T) {
	wantB, err := os.ReadFile(filepath.Join("testdata", "golden", "phone_state_deltas.golden"))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenStreamDeltas with -update): %v", err)
	}
	for _, k := range []int{2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			if got := goldenStreamReplay(t, k); got != string(wantB) {
				t.Errorf("sharded (k=%d) delta replay diverges from the single-engine golden:\n%s",
					k, diffLines(string(wantB), got))
			}
		})
	}
}

// goldenStreamReplay runs the committed delta script through a session
// of a system with the given shard count and returns the rendered replay, asserting
// the maintained-set invariant after every batch.
func goldenStreamReplay(t *testing.T, shards int) string {
	t.Helper()
	tbl, err := anmat.LoadCSV(filepath.Join("testdata", "phone_state.csv"))
	if err != nil {
		t.Fatal(err)
	}
	params := anmat.Params{MinCoverage: 0.05, AllowedViolations: 0.2}
	sys, err := anmat.New(anmat.WithParams(params), anmat.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession("golden-stream", tbl, params)
	ctx := context.Background()
	if err := sess.RunStages(ctx, anmat.StageProfile, anmat.StageDiscovery); err != nil {
		t.Fatal(err)
	}
	var rules []*anmat.PFD
	for _, p := range sess.Discovered {
		if p.LHS == "phone" && p.RHS == "state" {
			rules = append(rules, p)
		}
	}
	if len(rules) == 0 {
		t.Fatal("discovery found no phone→state rule")
	}
	sess.UseRules(rules)
	if _, err := sess.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "phone_state_deltas.json"))
	if err != nil {
		t.Fatal(err)
	}
	var script []anmat.DeltaBatch
	if err := json.Unmarshal(raw, &script); err != nil {
		t.Fatalf("parse delta script: %v", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# golden: phone_state delta replay (%d batch(es))\n", len(script))
	fmt.Fprintf(&b, "baseline: %d row(s), %d violation(s)\n", tbl.NumRows(), len(sess.Violations))
	for bi, batch := range script {
		diff, err := sess.ApplyDeltasCtx(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		fmt.Fprintf(&b, "\n## batch %d → seq %d: %d row(s), +%d -%d\n",
			bi+1, diff.Seq, diff.Rows, len(diff.Added), len(diff.Removed))
		for _, v := range diff.Added {
			fmt.Fprintf(&b, "+ %s\n", renderViolationLine(v))
		}
		for _, v := range diff.Removed {
			fmt.Fprintf(&b, "- %s\n", renderViolationLine(v))
		}

		// The corpus invariant: after every batch the maintained set is
		// byte-identical to a fresh full detection, at parallelism 1 and 4.
		eng, err := sess.Stream()
		if err != nil {
			t.Fatal(err)
		}
		maintained, err := json.Marshal(eng.Violations())
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			res, err := anmat.Detect(ctx, tbl, rules, par)
			if err != nil {
				t.Fatalf("batch %d parallelism %d: %v", bi, par, err)
			}
			full, err := json.Marshal(res.Violations)
			if err != nil {
				t.Fatal(err)
			}
			if string(maintained) != string(full) {
				t.Fatalf("batch %d: maintained set not byte-identical to full detection at parallelism %d", bi, par)
			}
		}
	}
	fmt.Fprintf(&b, "\n## final: %d row(s), %d violation(s)\n", tbl.NumRows(), len(sess.Violations))
	return b.String()
}

// renderViolationLine mirrors the violation rendering of the static
// golden corpus.
func renderViolationLine(v anmat.Violation) string {
	cells := make([]string, len(v.Cells))
	for i, c := range v.Cells {
		cells[i] = c.String()
	}
	return fmt.Sprintf("%s | cells %s | observed %q expected %q",
		v.Row, strings.Join(cells, " "), v.Observed, v.Expected)
}
