package anmat

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
)

func TestFacadeEndToEnd(t *testing.T) {
	ds := datagen.ZipCity(1200, 0.01, 99)

	// Round-trip through CSV as a user would.
	dir := t.TempDir()
	path := filepath.Join(dir, "zips.csv")
	if err := ds.Table.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1200 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}

	sys, err := New(WithStorePath(filepath.Join(dir, "store.json")))
	if err != nil {
		t.Fatal(err)
	}
	sys.CreateProject("p")
	sess := sys.NewSession("p", tbl, DefaultParams())
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sess.Discovered) == 0 || len(sess.Violations) == 0 {
		t.Fatalf("pipeline: %d PFDs, %d violations", len(sess.Discovered), len(sess.Violations))
	}
	if err := sys.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	// Standalone Discover/Detect/Repair path.
	pfds, err := Discover(tbl, DefaultDiscoveryConfig())
	if err != nil || len(pfds) == 0 {
		t.Fatalf("Discover: %d, %v", len(pfds), err)
	}
	vs, err := Detect(tbl, pfds)
	if err != nil || len(vs) == 0 {
		t.Fatalf("Detect: %d, %v", len(vs), err)
	}
	rs, err := SuggestRepairs(tbl, pfds)
	if err != nil || len(rs) == 0 {
		t.Fatalf("SuggestRepairs: %d, %v", len(rs), err)
	}
	n, err := ApplyRepairs(tbl, rs)
	if err != nil || n == 0 {
		t.Fatalf("ApplyRepairs: %d, %v", n, err)
	}
	post, err := Detect(tbl, pfds)
	if err != nil {
		t.Fatal(err)
	}
	if len(post) >= len(vs) {
		t.Errorf("repair did not reduce violations: %d → %d", len(vs), len(post))
	}
}

func TestFacadeReadCSV(t *testing.T) {
	tbl, err := ReadCSV("inline", strings.NewReader("a,b\n1,2\n"))
	if err != nil || tbl.NumRows() != 1 {
		t.Fatalf("ReadCSV: %v", err)
	}
	if _, err := NewTable("t", nil); err == nil {
		t.Error("NewTable with no columns should fail")
	}
}

func TestFacadeBadStorePath(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "{corrupt"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithStorePath(bad)); err == nil {
		t.Error("corrupt store should fail to open")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestNewWithOptions covers the functional-options constructor.
func TestNewWithOptions(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultDiscoveryConfig()
	cfg.MineVariable = false
	sys, err := New(
		WithStorePath(filepath.Join(dir, "store.json")),
		WithParams(Params{MinCoverage: 0.3, AllowedViolations: 0.25}),
		WithDiscoveryConfig(cfg),
		WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p := sys.Defaults(); p.MinCoverage != 0.3 || p.AllowedViolations != 0.25 {
		t.Errorf("Defaults = %+v", p)
	}
	tbl, err := ReadCSV("t", strings.NewReader("a,b\nx,1\nx,1\nx,1\nx,1\ny,2\ny,2\ny,2\ny,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession("p", tbl, sys.Defaults())
	if sess.Params.MinCoverage != 0.3 {
		t.Errorf("session params = %+v, want system defaults", sess.Params)
	}
	// Explicit zero params are honoured verbatim, not replaced.
	if zp := sys.NewSession("p", tbl, Params{}); zp.Params != (Params{}) {
		t.Errorf("zero params rewritten to %+v", zp.Params)
	}
	if sess.ID == "" {
		t.Error("session has no ID")
	}
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store().Flush(); err != nil {
		t.Fatal(err)
	}

	// A corrupt store path surfaces through New.
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "{corrupt"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithStorePath(bad)); err == nil {
		t.Error("corrupt store should fail New")
	}
}

// TestDiscoverContextCancelled checks facade-level cancellation.
func TestDiscoverContextCancelled(t *testing.T) {
	ds := datagen.ZipCity(500, 0, 98)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiscoverContext(ctx, ds.Table, DefaultDiscoveryConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("DiscoverContext = %v, want context.Canceled", err)
	}
}
