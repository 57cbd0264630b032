package shard

import (
	"fmt"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/stream"
)

// TestCoordinatorConcurrency hammers one coordinator from concurrent
// writers and readers; batches must serialize and every read must see a
// consistent merged set. Run under -race in CI.
func TestCoordinatorConcurrency(t *testing.T) {
	tbl := testTable()
	c, err := NewFrom(tbl, testRules(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := c.Apply(stream.Batch{stream.AppendRows(
					[]string{fmt.Sprintf("850%07d", w*1000+i), "FL", "r"},
				)})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = c.Violations()
				_ = c.Stats()
				_ = c.Seq()
				if _, err := c.Since(0); err != nil {
					t.Errorf("since: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Seq(); got != 100 {
		t.Fatalf("seq = %d after 100 batches", got)
	}
	assertMerged(t, c, tbl, testRules())
}
