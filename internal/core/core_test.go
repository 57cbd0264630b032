package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/invlist"
	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/tableau"
)

func TestPipelineEndToEnd(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	sys.CreateProject("demo")
	if ps := sys.Projects(); len(ps) != 1 || ps[0] != "demo" {
		t.Fatalf("Projects = %v", ps)
	}

	d := datagen.ZipCity(1500, 0.005, 42)
	se := sys.NewSession("demo", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Profile.Columns) != 3 {
		t.Errorf("profile columns = %d", len(se.Profile.Columns))
	}
	if len(se.Discovered) == 0 {
		t.Fatal("no PFDs discovered")
	}
	if len(se.Violations) == 0 {
		t.Fatal("no violations on dirty data")
	}
	if len(se.Repairs) == 0 {
		t.Fatal("no repairs suggested")
	}

	// Results were persisted.
	if sys.Store().Count(CollPFDs, nil) == 0 {
		t.Error("PFDs not stored")
	}
}

func TestDetectionFindsInjectedErrors(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(3000, 0.005, 43)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	flagged := map[int]bool{}
	for _, v := range se.Violations {
		for _, tu := range v.Tuples {
			flagged[tu] = true
		}
	}
	injected := d.InjectedRows()
	caught := 0
	for r := range injected {
		if flagged[r] {
			caught++
		}
	}
	if len(injected) == 0 {
		t.Fatal("no injected errors to find")
	}
	recall := float64(caught) / float64(len(injected))
	if recall < 0.9 {
		t.Errorf("recall = %.2f (%d/%d)", recall, caught, len(injected))
	}
}

func TestConfirmSubset(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(1200, 0.005, 44)
	se := sys.NewSession("p", d.Table, DefaultParams())
	se.RunProfile()
	if _, err := se.RunDiscovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) < 2 {
		t.Skipf("need ≥2 PFDs, got %d", len(se.Discovered))
	}
	only := se.Discovered[0].ID()
	got := se.Confirm(only)
	if len(got) != 1 || got[0].ID() != only {
		t.Fatalf("Confirm(%s) = %v", only, got)
	}
	vs, err := se.RunDetection(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.PFDID != only {
			t.Errorf("violation from unconfirmed PFD %s", v.PFDID)
		}
	}
}

func TestConfirmAllByDefault(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(800, 0, 45)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if _, err := se.RunDiscovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := se.Confirm(); len(got) != len(se.Discovered) {
		t.Errorf("Confirm() = %d, want all %d", len(got), len(se.Discovered))
	}
}

func TestRunDMV(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(600, 0, 47)
	zi, _ := d.Table.ColIndex("zip")
	for r := 0; r < d.Table.NumRows(); r += 60 {
		d.Table.SetCell(r, zi, "N/A")
	}
	se := sys.NewSession("p", d.Table, DefaultParams())
	findings := se.RunDMV()
	if len(findings) == 0 {
		t.Fatal("no DMV findings")
	}
	found := false
	for _, f := range findings {
		if f.Column == "zip" {
			for _, s := range f.Suspects {
				if s.Value == "N/A" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("N/A not flagged: %+v", findings)
	}
	// Re-running replaces, not duplicates, the in-session findings.
	if got := se.RunDMV(); len(got) != len(findings) {
		t.Errorf("re-run findings = %d, want %d", len(got), len(findings))
	}
}

func TestLoadPFDsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.json"
	store, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(store)
	d := datagen.ZipCity(1000, 0.01, 46)

	// Session 1: discover and persist.
	se := sys.NewSession("p", d.Table, DefaultParams())
	if _, err := se.RunDiscovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) == 0 {
		t.Fatal("nothing discovered")
	}
	wantViolations, err := se.RunDetection(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	// Session 2 (fresh store handle): reload rules and re-detect without
	// discovery.
	store2, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewSystem(store2)
	loaded, err := sys2.LoadPFDs(d.Table.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(se.Discovered) {
		t.Fatalf("loaded %d PFDs, stored %d", len(loaded), len(se.Discovered))
	}
	se2 := sys2.NewSession("p", d.Table, DefaultParams())
	se2.UseRules(loaded)
	got, err := se2.RunDetection(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantViolations) {
		t.Errorf("reloaded rules found %d violations, original %d", len(got), len(wantViolations))
	}

	// Filter by table name.
	none, err := sys2.LoadPFDs("not-a-table")
	if err != nil || len(none) != 0 {
		t.Errorf("LoadPFDs(bogus) = %d, %v", len(none), err)
	}
	all, err := sys2.LoadPFDs("")
	if err != nil || len(all) != len(loaded) {
		t.Errorf("LoadPFDs(all) = %d, %v", len(all), err)
	}

	// A later discovery run over a table of the same name replaces the
	// name's rule set; another table's stays as it is.
	other := sys2.NewSession("p", datagen.PhoneState(600, 0.01, 43).Table, DefaultParams())
	if _, err := other.RunDiscovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	again := datagen.ZipCity(400, 0.05, 47).Table
	if again.Name() != d.Table.Name() || other.Table.Name() == again.Name() {
		t.Fatalf("fixture tables are named %q, %q and %q", d.Table.Name(), again.Name(), other.Table.Name())
	}
	se3 := sys2.NewSession("p", again, DefaultParams())
	if _, err := se3.RunDiscovery(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, se := range []*Session{se3, other} {
		got, err := sys2.LoadPFDs(se.Table.Name())
		if err != nil {
			t.Fatal(err)
		}
		if len(se.Discovered) == 0 || !reflect.DeepEqual(pfdDocs(got), pfdDocs(se.Discovered)) {
			t.Errorf("LoadPFDs(%q) = %v, want the rules of the name's last run %v", se.Table.Name(), pfdDocs(got), pfdDocs(se.Discovered))
		}
	}
}

// pfdDocs renders a rule set as its rules' JSON documents, sorted.
func pfdDocs(ps []*pfd.PFD) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		b, _ := json.Marshal(p)
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func TestLoadPFDsCorruptDoc(t *testing.T) {
	store := docstore.NewMem()
	store.Insert(CollPFDs, docstore.Doc{"table": "t", "tableau": []any{map[string]any{"lhs": "<\\L", "rhs": "x"}}})
	sys := NewSystem(store)
	if _, err := sys.LoadPFDs("t"); err == nil {
		t.Error("corrupt stored PFD should error")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.MinCoverage <= 0 || p.MinCoverage >= 1 {
		t.Errorf("MinCoverage = %f", p.MinCoverage)
	}
	if p.AllowedViolations < 0 || p.AllowedViolations >= 1 {
		t.Errorf("AllowedViolations = %f", p.AllowedViolations)
	}
}

// TestRunCancelledMidDiscovery is the cancellation contract: cancelling
// the context while discovery is mining aborts Session.Run with an error
// wrapping context.Canceled.
func TestRunCancelledMidDiscovery(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(2000, 0.005, 48)
	se := sys.NewSession("p", d.Table, DefaultParams())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	cfg := discovery.Default()
	cfg.Parallelism = 1
	// The decision function parks the miner mid-candidate until the test
	// has cancelled, so Run is provably cancelled *during* discovery.
	cfg.Decision = func(e invlist.Entry) bool {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return false
	}
	se.Discovery = &cfg

	errc := make(chan error, 1)
	go func() { errc <- se.Run(ctx) }()
	<-started
	cancel()
	err := <-errc
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled ctx = %v, want wrapped context.Canceled", err)
	}
	if len(se.Discovered) != 0 {
		t.Errorf("cancelled run still published %d PFDs", len(se.Discovered))
	}
}

// RunDiscovery hands discovery the profile the profile stage computed —
// and only while it still describes the table: any mutation since makes
// discovery profile for itself.
func TestRunDiscoveryUsesCurrentProfileOnly(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(800, 0.005, 52)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()

	want, err := discovery.Discover(d.Table, se.discoveryConfig())
	if err != nil || len(want.PFDs) == 0 {
		t.Fatalf("fixture: %d PFDs, err %v", len(want.PFDs), err)
	}
	se.RunProfile()
	got, err := se.RunDiscovery(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableaux(got), tableaux(want.PFDs)) {
		t.Errorf("discovery over the session's profile differs from a self-profiled run")
	}

	// A doctored profile (no columns, so no candidates) shows which one
	// discovery used: the stored one while the table is unchanged …
	se.Profile.Columns = nil
	if got, err = se.RunDiscovery(ctx); err != nil || len(got) != 0 {
		t.Errorf("current profile not handed to discovery: %d PFDs, err %v", len(got), err)
	}
	// … and its own as soon as a row changed under it.
	se.Table.SetCell(0, 1, se.Table.Cell(0, 1))
	if got, err = se.RunDiscovery(ctx); err != nil || !reflect.DeepEqual(tableaux(got), tableaux(want.PFDs)) {
		t.Errorf("stale profile must not be used: %d PFDs, err %v", len(got), err)
	}
}

func tableaux(ps []*pfd.PFD) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID() + "\n" + p.Tableau.String()
	}
	return out
}

// TestRunStagesCancelledBetweenStages checks the stage-boundary ctx check.
func TestRunStagesCancelledBetweenStages(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(300, 0, 49)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := se.RunStages(ctx, StageProfile); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunStages = %v, want context.Canceled", err)
	}
	if _, err := se.RunDetection(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled RunDetection = %v, want context.Canceled", err)
	}
}

// TestRunStagesComposition exercises the partial flows the stage API is
// for: profile-only, discovery-only, and detect-with-installed-rules.
func TestRunStagesComposition(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(1000, 0.01, 50)

	profOnly := sys.NewSession("p", d.Table, DefaultParams())
	if err := profOnly.RunStages(ctx, StageProfile); err != nil {
		t.Fatal(err)
	}
	if len(profOnly.Profile.Columns) == 0 || profOnly.Discovered != nil {
		t.Fatalf("profile-only ran discovery: %d PFDs", len(profOnly.Discovered))
	}

	discOnly := sys.NewSession("p", d.Table, DefaultParams())
	if err := discOnly.RunStages(ctx, StageProfile, StageDiscovery); err != nil {
		t.Fatal(err)
	}
	if len(discOnly.Discovered) == 0 || discOnly.Violations != nil {
		t.Fatalf("discovery-only: %d PFDs, %d violations", len(discOnly.Discovered), len(discOnly.Violations))
	}

	detectOnly := sys.NewSession("p", d.Table, DefaultParams())
	detectOnly.UseRules(discOnly.Discovered)
	if err := detectOnly.RunStages(ctx, StageDetection, StageRepairs); err != nil {
		t.Fatal(err)
	}
	if len(detectOnly.Violations) == 0 {
		t.Fatal("stored-rule detection found nothing on dirty data")
	}

	if err := detectOnly.RunStages(ctx, Stage("bogus")); err == nil {
		t.Error("unknown stage should error")
	}
}

// TestSessionIDsStableAndUnique checks the registry prerequisite.
func TestSessionIDsStableAndUnique(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(50, 0, 51)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		se := sys.NewSession("p", d.Table, DefaultParams())
		if se.ID == "" || seen[se.ID] {
			t.Fatalf("session ID %q not unique/stable", se.ID)
		}
		seen[se.ID] = true
	}
}

// TestConfirmSubsetPreservesDiscovered is the aliasing regression: after
// a full run Confirmed aliases Discovered, and a selective Confirm must
// not overwrite Discovered's backing array.
func TestConfirmSubsetPreservesDiscovered(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.ZipCity(1200, 0.005, 52)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) < 2 {
		t.Skipf("need ≥2 PFDs, got %d", len(se.Discovered))
	}
	before := make([]string, len(se.Discovered))
	for i, p := range se.Discovered {
		before[i] = p.ID()
	}
	se.Confirm(before[len(before)-1]) // subset confirm after confirm-all
	for i, p := range se.Discovered {
		if p.ID() != before[i] {
			t.Fatalf("Discovered[%d] corrupted: %s, want %s", i, p.ID(), before[i])
		}
	}
}

// TestRunDetectionStatsAndParallelism: RunDetection fills per-rule stats
// and a system configured with parallelism produces identical violations
// and repairs to the sequential default.
func TestRunDetectionStatsAndParallelism(t *testing.T) {
	d := datagen.ZipCity(600, 0.02, 61)
	run := func(par int) *Session {
		cfg := DefaultSystemConfig()
		cfg.Parallelism = par
		se := NewSystemWith(docstore.NewMem(), cfg).NewSession("p", d.Table, DefaultParams())
		if err := se.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return se
	}
	seq := run(1)
	if len(seq.Violations) == 0 {
		t.Fatal("fixture produced no violations")
	}
	rules := seq.Confirmed
	if rules == nil {
		rules = seq.Discovered
	}
	if len(seq.DetectStats) != len(rules) {
		t.Fatalf("DetectStats for %d rules, want %d", len(seq.DetectStats), len(rules))
	}
	for i, st := range seq.DetectStats {
		if st.PFDID != rules[i].ID() || st.Duration < 0 {
			t.Errorf("DetectStats[%d] = %+v", i, st)
		}
	}
	for _, par := range []int{4, 8} {
		got := run(par)
		if !reflect.DeepEqual(got.Violations, seq.Violations) {
			t.Errorf("parallelism %d: violations differ from sequential", par)
		}
		if !reflect.DeepEqual(got.Repairs, seq.Repairs) {
			t.Errorf("parallelism %d: repairs differ from sequential", par)
		}
	}
}

// TestSessionEngineReuseAndStaleness: the session shares one detection
// engine between detection and repairs, and rebuilds it automatically
// when the table is mutated in place (the ApplyRepairs-then-redetect
// flow) — no manual reset required.
func TestSessionEngineReuseAndStaleness(t *testing.T) {
	d := datagen.ZipCity(400, 0.02, 62)
	sys := NewSystem(docstore.NewMem())
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if se.det == nil {
		t.Fatal("session should cache its detection engine")
	}
	eng := se.det
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	if se.det != eng {
		t.Error("re-running detection on an unchanged table should reuse the cached engine")
	}
	// Apply the repairs in place and re-detect with NO manual reset:
	// violations covered by repairs disappear only if the stale engine is
	// rebuilt over the mutated table.
	if _, err := detect.Apply(se.Table, se.Repairs); err != nil {
		t.Fatal(err)
	}
	before := len(se.Violations)
	after, err := se.RunDetection(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if se.det == eng {
		t.Error("detection after table mutation should rebuild the engine")
	}
	if len(after) >= before {
		t.Errorf("violations after repair = %d, want < %d", len(after), before)
	}
}

func TestSessionStreamDeltas(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(600, 0.01, 44)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()
	if se.DetectionRan() {
		t.Error("DetectionRan before any run")
	}
	if err := se.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !se.DetectionRan() {
		t.Error("DetectionRan after Run")
	}

	eng, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	// The maintained set matches the session's detected violations.
	if len(eng.Violations()) != len(se.Violations) {
		t.Fatalf("engine %d violations, session %d", len(eng.Violations()), len(se.Violations))
	}
	// The handle is cached while nothing changed.
	again, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if again != eng {
		t.Error("Stream must return the cached engine")
	}

	// A delta flows through and refreshes the session's violations.
	row := se.Table.Row(0)
	row[1] = "ZZ" // wrong state for the phone's area code
	diff, err := se.ApplyDeltas(stream.Batch{stream.AppendRows(row)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) == 0 {
		t.Error("dirty appended row should add violations")
	}
	if len(se.Violations) != len(eng.Violations()) {
		t.Error("ApplyDeltas must refresh session violations")
	}

	// Detection on the untouched-by-detector table agrees with the
	// maintained set, and the engine survives it (no mutation happened).
	vs, err := se.RunDetection(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(eng.Violations()) {
		t.Errorf("full detection %d != maintained %d", len(vs), len(eng.Violations()))
	}

	// Repairs route through the stream: the engine stays valid and the
	// diff reports the removals.
	if _, err := se.RunRepairs(ctx); err != nil {
		t.Fatal(err)
	}
	changed, rdiff, err := se.ApplyRepairs(se.Repairs)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 || rdiff == nil {
		t.Fatalf("stream-routed repairs: changed=%d diff=%v", changed, rdiff)
	}
	if len(rdiff.Removed) == 0 {
		t.Error("repairs should remove violations")
	}
	if eng.Stale() {
		t.Error("stream-routed repairs must keep the engine fresh")
	}
	if again, _ := se.Stream(); again != eng {
		t.Error("engine must survive stream-routed repairs")
	}

	// An external mutation (detect.Apply path) makes the engine stale and
	// Stream rebuilds.
	se.Table.SetCell(0, 1, "XX")
	rebuilt, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == eng {
		t.Error("Stream must rebuild after an external table mutation")
	}
}

func TestSessionStreamRequiresRules(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(100, 0, 45)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if _, err := se.Stream(); err == nil {
		t.Error("Stream without rules should fail")
	}
	if _, err := se.ApplyDeltas(stream.Batch{stream.DeleteRows(0)}); err == nil {
		t.Error("ApplyDeltas without rules should fail")
	}
}

func TestApplyRepairsFallbackWithoutStream(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(600, 0.01, 46)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(se.Repairs) == 0 {
		t.Fatal("no repairs on dirty data")
	}
	changed, diff, err := se.ApplyRepairs(se.Repairs)
	if err != nil {
		t.Fatal(err)
	}
	if changed == 0 {
		t.Error("fallback path should change cells")
	}
	if diff != nil {
		t.Error("fallback path reports no diff")
	}
	// Confirming the identical rule set keeps the cached engine; a real
	// rule-set change (extra rule installed via UseRules) rebuilds it.
	eng, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	se.Confirm(se.Discovered[0].ID())
	if kept, _ := se.Stream(); len(se.Discovered) == 1 && kept != eng {
		t.Error("identical rule set must keep the cached engine")
	}
	extra := pfd.New(se.Table.Name(), "phone", "state", tableau.New(tableau.Row{
		LHS: pattern.MustParseConstrained(`<999>\D{7}`),
		RHS: "ZZ",
	}))
	se.UseRules(append(append([]*pfd.PFD{}, se.Discovered...), extra))
	rebuilt, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == eng {
		t.Error("Stream must rebuild after the rule set changes")
	}
}

func TestStreamRebuildContinuesCursorTimeline(t *testing.T) {
	sys := NewSystem(docstore.NewMem())
	d := datagen.PhoneState(400, 0.01, 47)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ApplyDeltas(stream.Batch{stream.AppendRows(se.Table.Row(0))}); err != nil {
		t.Fatal(err)
	}
	old, _ := se.Stream()
	if old.Seq() != 1 {
		t.Fatalf("seq = %d", old.Seq())
	}
	// External mutation forces a rebuild; the replacement continues the
	// timeline so a client cursor from the old engine resets cleanly.
	se.Table.SetCell(0, 1, "XX")
	rebuilt, err := se.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == old {
		t.Fatal("expected a rebuild")
	}
	if rebuilt.Seq() != 2 {
		t.Errorf("rebuilt seq = %d, want 2 (old seq + 1)", rebuilt.Seq())
	}
	diff, err := rebuilt.Since(1)
	if err != nil {
		t.Fatalf("old cursor must not error after rebuild: %v", err)
	}
	if !diff.Reset {
		t.Error("old cursor should resolve to a reset snapshot")
	}
}
