package detect

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/tableau"
)

// parallelFixture builds a table with several rules of both shapes so the
// fan-out has real work: the PhoneState ground-truth constant tableau
// (20 rows) plus a variable rule over the same columns.
func parallelFixture() (tbl *datagen.Dataset, ps []*pfd.PFD) {
	ds := datagen.PhoneState(800, 0.02, 42)
	constant := pfd.New(ds.Table.Name(), "phone", "state", tableauFromAreaCodes())
	variable := pfd.New(ds.Table.Name(), "phone", "state", tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`),
		RHS: tableau.Wildcard,
	}))
	return ds, []*pfd.PFD{constant, variable}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDetectAllContextByteIdentical asserts the acceptance criterion:
// parallel output is byte-identical to the sequential engine for
// parallelism 1, 4, and 8.
func TestDetectAllContextByteIdentical(t *testing.T) {
	ds, ps := parallelFixture()
	seq, err := New(ds.Table, Options{}).DetectAllContext(context.Background(), ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Violations) == 0 {
		t.Fatal("fixture produced no violations")
	}
	want := marshal(t, seq.Violations)
	for _, par := range []int{1, 4, 8} {
		res, err := New(ds.Table, Options{}).DetectAllContext(context.Background(), ps, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if got := marshal(t, res.Violations); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: output differs from sequential", par)
		}
	}
}

// TestDetectAllContextStats checks the per-rule stats line up with the
// rule list and account for every pre-dedupe violation.
func TestDetectAllContextStats(t *testing.T) {
	ds, ps := parallelFixture()
	res, err := New(ds.Table, Options{}).DetectAllContext(context.Background(), ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != len(ps) {
		t.Fatalf("stats for %d rules, want %d", len(res.Stats), len(ps))
	}
	total := 0
	for i, st := range res.Stats {
		if st.PFDID != ps[i].ID() {
			t.Errorf("stats[%d].PFDID = %q, want %q", i, st.PFDID, ps[i].ID())
		}
		if st.Rows != ps[i].Tableau.Len() {
			t.Errorf("stats[%d].Rows = %d, want %d", i, st.Rows, ps[i].Tableau.Len())
		}
		if st.Duration < 0 {
			t.Errorf("stats[%d].Duration negative", i)
		}
		total += st.Violations
	}
	// Stats count pre-dedupe contributions, so they bound the merged list.
	if total < len(res.Violations) {
		t.Errorf("per-rule violations %d < merged %d", total, len(res.Violations))
	}
}

// TestConcurrentDetectSharedIndexCache hammers one Detector from many
// goroutines (run with -race): the singleflight column-index cache must
// stay consistent and every call must return the sequential answer.
func TestConcurrentDetectSharedIndexCache(t *testing.T) {
	ds, ps := parallelFixture()
	want := make([][]byte, len(ps))
	for i, p := range ps {
		vs, err := New(ds.Table, Options{}).Detect(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshal(t, vs)
	}
	d := New(ds.Table, Options{})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				i := (g + rep) % len(ps)
				vs, err := d.Detect(ps[i])
				if err != nil {
					errs <- err
					return
				}
				if got := marshal(t, vs); !reflect.DeepEqual(got, want[i]) {
					errs <- errors.New("concurrent Detect diverged from sequential")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentRepairsSharedDetector exercises the repair path's use of
// the shared column cache under -race.
func TestConcurrentRepairsSharedDetector(t *testing.T) {
	ds, ps := parallelFixture()
	want, err := New(ds.Table, Options{}).RepairsAllContext(context.Background(), ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(ds.Table, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := d.RepairsAllContext(context.Background(), ps, 4)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- errors.New("concurrent RepairsAllContext diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRepairsAllContextMatchesSequentialMerge pins the first-rule-wins,
// sorted-by-cell merge contract at several parallelism levels.
func TestRepairsAllContextMatchesSequentialMerge(t *testing.T) {
	ds, ps := parallelFixture()
	d := New(ds.Table, Options{})
	// Reference: iterate rules in order, first suggestion per cell wins.
	seen := map[string]bool{}
	var ref []Repair
	for _, p := range ps {
		rs, err := d.Repairs(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if k := r.Cell.String(); !seen[k] {
				seen[k] = true
				ref = append(ref, r)
			}
		}
	}
	sortRepairs(ref)
	if len(ref) == 0 {
		t.Fatal("fixture produced no repairs")
	}
	for _, par := range []int{1, 4, 8} {
		got, err := New(ds.Table, Options{}).RepairsAllContext(context.Background(), ps, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("parallelism %d: repairs differ from sequential merge", par)
		}
	}
}

func sortRepairs(rs []Repair) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Cell.Less(rs[j-1].Cell); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// TestDetectAllContextCancel checks a cancelled context aborts the pool
// with an error wrapping context.Canceled.
func TestDetectAllContextCancel(t *testing.T) {
	ds, ps := parallelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ds.Table, Options{}).DetectAllContext(ctx, ps, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := New(ds.Table, Options{}).RepairsAllContext(ctx, ps, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("repairs err = %v, want context.Canceled", err)
	}
}

// TestDetectAllContextMissingColumn checks schema errors surface before
// any work is spawned, deterministically.
func TestDetectAllContextMissingColumn(t *testing.T) {
	ds, ps := parallelFixture()
	bad := pfd.New(ds.Table.Name(), "nope", "state", tableauFromAreaCodes())
	if _, err := New(ds.Table, Options{}).DetectAllContext(context.Background(), append(ps, bad), 4); err == nil {
		t.Error("missing column should error")
	}
}
