package discovery

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/table"
)

// fingerprint serializes a PFD list for cross-run comparison.
func fingerprint(t *testing.T, ps []*pfd.PFD) string {
	t.Helper()
	b, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Parallel mining is serial mining: on the zip table and on a wide one,
// where each column's key index is built and read by the workers of its
// many candidates at once.
func TestParallelDiscoveryMatchesSerial(t *testing.T) {
	for _, tbl := range []*table.Table{datagen.ZipCity(1500, 0.01, 23).Table, wideTable(16, 300, 23)} {
		serial := Default()
		serial.Parallelism = 1
		resS, err := Discover(context.Background(), tbl, nil, serial)
		if err != nil {
			t.Fatal(err)
		}
		par := Default()
		par.Parallelism = 8
		resP, err := Discover(context.Background(), tbl, nil, par)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, resS.PFDs) != fingerprint(t, resP.PFDs) {
			t.Errorf("%s: parallel discovery diverged from serial", tbl.Name())
		}
		if len(resS.Stats) != len(resP.Stats) {
			t.Errorf("%s: stats length: %d vs %d", tbl.Name(), len(resS.Stats), len(resP.Stats))
		}
		for i := range resS.Stats {
			if resS.Stats[i] != resP.Stats[i] {
				t.Errorf("%s: stat %d differs: %+v vs %+v", tbl.Name(), i, resS.Stats[i], resP.Stats[i])
			}
		}
	}
}

func TestParallelDiscoveryRace(t *testing.T) {
	// Exercised under -race in CI; many workers over few candidates.
	ds := datagen.EmployeeID(800, 0.005, 24)
	cfg := Default()
	cfg.Parallelism = 16
	if _, err := Discover(context.Background(), ds.Table, nil, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryDeterministic(t *testing.T) {
	ds := datagen.NameGender(1000, 0.01, 25)
	a, err := Discover(context.Background(), ds.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discover(context.Background(), ds.Table, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a.PFDs) != fingerprint(t, b.PFDs) {
		t.Error("discovery is not deterministic across runs")
	}
}

// cancelInIndexBuild is a context that cancels itself the second time the
// key index build asks whether it is done — after the build has started
// and before it has finished — and records that it did.
type cancelInIndexBuild struct {
	context.Context
	cancel  context.CancelFunc
	asked   atomic.Int32
	fromIdx atomic.Bool
}

func (c *cancelInIndexBuild) Err() error {
	pc, _, _, _ := runtime.Caller(1)
	if strings.Contains(runtime.FuncForPC(pc).Name(), "invlist.NewIndex") && c.asked.Add(1) == 2 {
		c.fromIdx.Store(true)
		c.cancel()
	}
	return c.Context.Err()
}

// A run cancelled while a column's key index is being built stops there
// and reports the cancellation.
func TestDiscoverCancelled(t *testing.T) {
	tbl := datagen.PhoneState(20_000, 0.01, 29).Table
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelInIndexBuild{Context: inner, cancel: cancel}
	cfg := Default()
	cfg.Parallelism = 1
	res, err := Discover(ctx, tbl, nil, cfg)
	if !ctx.fromIdx.Load() {
		t.Fatal("the index build never checked the context a second time")
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Discover = %v, %v; want an error wrapping context.Canceled", res, err)
	}
}
