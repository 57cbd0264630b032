package anmat

import (
	"context"
	"errors"
	"fmt"
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
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		t.Fatalf("the run wrote no store file: %v", err)
	}

	// Standalone Discover/Detect/Repair path.
	ctx := context.Background()
	pfds, err := Discover(ctx, tbl, DefaultDiscoveryConfig())
	if err != nil || len(pfds) == 0 {
		t.Fatalf("Discover: %d, %v", len(pfds), err)
	}
	res, err := Detect(ctx, tbl, pfds, 1)
	if err != nil || len(res.Violations) == 0 {
		t.Fatalf("Detect: %v, %v", res, err)
	}
	vs := res.Violations
	rs, err := SuggestRepairs(ctx, tbl, pfds, 1)
	if err != nil || len(rs) == 0 {
		t.Fatalf("SuggestRepairs: %d, %v", len(rs), err)
	}
	n, err := ApplyRepairs(tbl, rs)
	if err != nil || n == 0 {
		t.Fatalf("ApplyRepairs: %d, %v", n, err)
	}
	post, err := Detect(ctx, tbl, pfds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Violations) >= len(vs) {
		t.Errorf("repair did not reduce violations: %d → %d", len(vs), len(post.Violations))
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

// TestStorePathKeepsMinedRules: the rules one System mines with a store
// path are what a second System on that path loads, with no call but Run.
func TestStorePathKeepsMinedRules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "anmat.json")
	tbl, err := LoadCSV(filepath.Join("testdata", "phone_state.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithStorePath(path))
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession("p", tbl, DefaultParams())
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sess.Discovered) == 0 {
		t.Fatal("nothing mined: the round trip below would check nothing")
	}

	later, err := New(WithStorePath(path))
	if err != nil {
		t.Fatal(err)
	}
	loaded := later.LoadPFDs(tbl.Name())
	if got, want := fmt.Sprint(loaded), fmt.Sprint(sess.Discovered); got != want {
		t.Errorf("a second System loaded %s, the first mined %s", got, want)
	}
}

// TestStorePathKeepsProjects: a project one System creates with a store
// path is listed by a second System on that path, with no call but
// CreateProject.
func TestStorePathKeepsProjects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "anmat.json")
	sys, err := New(WithStorePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateProject("census"); err != nil {
		t.Fatal(err)
	}
	later, err := New(WithStorePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if got := later.Projects(); fmt.Sprint(got) != "[census]" {
		t.Errorf("a second System lists projects %q, want the first one's [census]", got)
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
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		t.Fatalf("the run wrote no store file: %v", err)
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

// TestDiscoverCancelled checks facade-level cancellation.
func TestDiscoverCancelled(t *testing.T) {
	ds := datagen.ZipCity(500, 0, 98)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Discover(ctx, ds.Table, DefaultDiscoveryConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("Discover = %v, want context.Canceled", err)
	}
}
