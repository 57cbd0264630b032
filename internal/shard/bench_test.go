package shard

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

// benchRows is the table size of the sharded-detection benchmark —
// defaults to 1M rows (the acceptance floor), overridable with
// SHARD_BENCH_ROWS for quick local runs.
func benchRows() int {
	if v := os.Getenv("SHARD_BENCH_ROWS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

var (
	benchOnce  sync.Once
	benchTable *table.Table
)

// benchCorpus generates the phone→state benchmark table once per
// process: the cmd/datagen D1 family at the configured scale with the
// default 0.5% injected error rate.
func benchCorpus() *table.Table {
	benchOnce.Do(func() {
		benchTable = datagen.PhoneState(benchRows(), 0.005, 2019).Table
	})
	return benchTable
}

func benchRules() []*pfd.PFD {
	return []*pfd.PFD{
		pfd.New("d1_phone_state", "phone", "state", tableau.New(
			tableau.Row{LHS: pattern.MustParseConstrained(`<850>\D{7}`), RHS: "FL"},
			tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: tableau.Wildcard},
		)),
	}
}

// BenchmarkShardDetect measures a full sharded detection — coordinator
// bootstrap over the whole table, i.e. routing + K parallel engine
// builds + the global merge — at K = 1/2/4/8. Violations are
// byte-identical at every K (the tests pin that); what varies is
// wall-clock: compare the /k<N> variants' ns/op against /k1; rows/sec is
// reported as a custom metric. NOTE: with NumCPU=1 the K-way parallel
// bootstrap cannot fan out; multicore hardware is where a speedup shows.
func BenchmarkShardDetect(b *testing.B) {
	tbl := benchCorpus()
	rules := benchRules()
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rows%d/k%d", tbl.NumRows(), k), func(b *testing.B) {
			var violations int
			samples := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				c, err := NewWith(tbl, rules, k, Config{})
				samples = append(samples, time.Since(start))
				if err != nil {
					b.Fatal(err)
				}
				violations = len(c.Violations())
			}
			b.ReportMetric(float64(tbl.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
			b.ReportMetric(float64(violations), "violations")
			// Nearest-rank quantiles of the per-build wall times.
			slices.Sort(samples)
			quantileMS := func(q float64) float64 {
				i := int(math.Ceil(q*float64(len(samples)))) - 1
				return float64(samples[max(i, 0)]) / float64(time.Millisecond)
			}
			b.ReportMetric(quantileMS(0.5), "detect_p50_ms")
			b.ReportMetric(quantileMS(0.95), "detect_p95_ms")
		})
	}
}

// BenchmarkShardApply measures the incremental hot path on an already
// bootstrapped K-shard coordinator, one single-op batch per iteration:
// append1 routes a row to its owning shards and folds their diffs;
// migrate1 rewrites row 0's phone between two prefixes whose blocks two
// different shards own (at k1 the row stays put), and delete1 drops row 0
// — both renumber, so the coordinator re-merges every shard's set. The
// coordinator build is outside the timed loop.
func BenchmarkShardApply(b *testing.B) {
	rules := benchRules()
	// Two prefixes owned by different shards at K=4, neither by row 0's
	// home shard 0, so every migrate1 update moves the row.
	var prefixes []string
	for p := 100; len(prefixes) < 2; p++ {
		key := strconv.Itoa(p)
		if o := Owner(key, 4); o != 0 && (len(prefixes) == 0 || o != Owner(prefixes[0], 4)) {
			prefixes = append(prefixes, key)
		}
	}
	arms := []struct {
		name string
		op   func(i int) stream.Op
	}{
		{"append1", func(i int) stream.Op { return stream.AppendRows([]string{fmt.Sprintf("850%07d", i), "FL"}) }},
		{"migrate1", func(i int) stream.Op { return stream.UpdateCell(0, "phone", prefixes[i%2]+"5550000") }},
		{"delete1", func(int) stream.Op { return stream.DeleteRows(0) }},
	}
	for _, arm := range arms {
		for _, k := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/k%d", arm.name, k), func(b *testing.B) {
				var c *Coordinator
				build := func() {
					ds := datagen.PhoneState(20_000, 0.005, 7)
					var err error
					if c, err = NewWith(ds.Table, rules, k, Config{}); err != nil {
						b.Fatal(err)
					}
				}
				build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if c.tr.t.NumRows() < 2 { // delete1 ran the table down
						b.StopTimer()
						build()
						b.StartTimer()
					}
					if _, err := c.ApplyCtx(context.Background(), stream.Batch{arm.op(i)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
