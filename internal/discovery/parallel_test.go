package discovery

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/pfd"
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

func TestParallelDiscoveryMatchesSerial(t *testing.T) {
	ds := datagen.ZipCity(1500, 0.01, 23)
	serial := Default()
	serial.Parallelism = 1
	resS, err := Discover(context.Background(), ds.Table, nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	par := Default()
	par.Parallelism = 8
	resP, err := Discover(context.Background(), ds.Table, nil, par)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, resS.PFDs) != fingerprint(t, resP.PFDs) {
		t.Error("parallel discovery diverged from serial")
	}
	if len(resS.Stats) != len(resP.Stats) {
		t.Errorf("stats length: %d vs %d", len(resS.Stats), len(resP.Stats))
	}
	for i := range resS.Stats {
		if resS.Stats[i] != resP.Stats[i] {
			t.Errorf("stat %d differs: %+v vs %+v", i, resS.Stats[i], resP.Stats[i])
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
