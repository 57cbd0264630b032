package stream

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentApply hammers one engine with concurrent delta batches,
// Since polls, and Violations/Stats reads. Run under -race this checks
// the engine's locking; afterwards the maintained set must still match a
// full re-detection, i.e. the serialization of the batches was sound.
func TestConcurrentApply(t *testing.T) {
	tbl := streamTable()
	rules := streamRules()
	e, err := NewEngineFrom(tbl, rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const batches = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				phone := fmt.Sprintf("85%02d%03d", w, i)
				state := []string{"FL", "GA", "NY"}[i%3]
				if _, err := e.ApplyCtx(context.Background(), Batch{AppendRows([]string{phone, state, "r"})}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	// Concurrent readers: cursor polls and snapshots must never race with
	// the writers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.Since(0); err != nil {
					t.Errorf("since: %v", err)
					return
				}
				_ = e.Violations()
				_ = e.Stats()
			}
		}()
	}
	wg.Wait()
	if got := e.Seq(); got != writers*batches {
		t.Errorf("seq = %d, want %d", got, writers*batches)
	}
	if tbl.NumRows() != 5+writers*batches {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	assertMaintained(t, e, tbl, rules)
}
