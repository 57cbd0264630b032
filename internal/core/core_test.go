package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
	"github.com/anmat/anmat/internal/table"
	"github.com/anmat/anmat/internal/tableau"
)

func TestPipelineEndToEnd(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	if len(sys.LoadPFDs("")) == 0 {
		t.Error("PFDs not stored")
	}
}

func TestDetectionFindsInjectedErrors(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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

// TestLoadPFDsRoundTrip: rules reloaded from a memory store and from a
// reopened path store detect, byte for byte, the violations the mined
// rules detected.
func TestLoadPFDsRoundTrip(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "store.json")
	store, err := docstore.OpenWith(path, docstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := datagen.ZipCity(1000, 0.01, 46)
	mem := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	var want string
	for _, sys := range []*System{mem, NewSystemWith(store, DefaultSystemConfig())} {
		se := sys.NewSession("p", d.Table, DefaultParams())
		if _, err := se.RunDiscovery(ctx); err != nil {
			t.Fatal(err)
		}
		vs, err := se.RunDetection(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			t.Fatal("the mined rules detect nothing: the comparison below would check nothing")
		}
		want = mustJSONStr(t, vs)
	}

	// A fresh store handle on the path: reload the rules and re-detect
	// without discovery.
	store2, err := docstore.OpenWith(path, docstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2 := NewSystemWith(store2, DefaultSystemConfig())
	for name, sys := range map[string]*System{"memory": mem, "reopened path": sys2} {
		se := sys.NewSession("p", d.Table, DefaultParams())
		se.UseRules(sys.LoadPFDs(d.Table.Name()))
		got, err := se.RunDetection(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSONStr(t, got) != want {
			t.Errorf("%s store: the reloaded rules detect other violations than the mined ones", name)
		}
	}

	// Filter by table name.
	loaded := sys2.LoadPFDs(d.Table.Name())
	if none := sys2.LoadPFDs("not-a-table"); len(none) != 0 {
		t.Errorf("LoadPFDs(bogus) = %d", len(none))
	}
	if all := sys2.LoadPFDs(""); len(all) != len(loaded) {
		t.Errorf("LoadPFDs(all) = %d, want %d", len(all), len(loaded))
	}

	// A later discovery run over a table of the same name replaces the
	// name's rule set; another table's stays as it is.
	other := sys2.NewSession("p", datagen.PhoneState(600, 0.01, 43).Table, DefaultParams())
	if _, err := other.RunDiscovery(ctx); err != nil {
		t.Fatal(err)
	}
	again := datagen.ZipCity(400, 0.05, 47).Table
	if again.Name() != d.Table.Name() || other.Table.Name() == again.Name() {
		t.Fatalf("fixture tables are named %q, %q and %q", d.Table.Name(), again.Name(), other.Table.Name())
	}
	se3 := sys2.NewSession("p", again, DefaultParams())
	if _, err := se3.RunDiscovery(ctx); err != nil {
		t.Fatal(err)
	}
	for _, se := range []*Session{se3, other} {
		got := sys2.LoadPFDs(se.Table.Name())
		if len(se.Discovered) == 0 || !reflect.DeepEqual(pfdDocs(got), pfdDocs(se.Discovered)) {
			t.Errorf("LoadPFDs(%q) = %v, want the rules of the name's last run %v", se.Table.Name(), pfdDocs(got), pfdDocs(se.Discovered))
		}
	}
}

// TestLoadPFDsAllocsConstant: reloading a memory store's rules costs the
// same few allocations whatever the size of their tableaux — the store
// holds the mined rules, not documents to decode.
func TestLoadPFDsAllocsConstant(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	var sizes []int
	for _, n := range []int{300, 10000} {
		tbl, err := table.ReadCSV("phone", bytes.NewReader(benchCSV(t, datagen.PhoneState, n)))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sys.NewSession("p", tbl, DefaultParams()).RunDiscovery(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, p := range ps {
			rows += p.Tableau.Len()
		}
		sizes = append(sizes, rows)
		if a := testing.AllocsPerRun(10, func() { sys.LoadPFDs(tbl.Name()) }); a > 1 {
			t.Errorf("LoadPFDs over %d tableau rows: %.0f allocations, want at most 1", rows, a)
		}
	}
	if sizes[0] >= sizes[1] {
		t.Fatalf("tableau rows %v: the fixture does not grow the tableau", sizes)
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
	d := datagen.ZipCity(2000, 0.005, 48)
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
	se := NewSystemWith(docstore.NewMem(), SystemConfig{Discovery: cfg}).NewSession("p", d.Table, DefaultParams())

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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.PhoneState(800, 0.005, 52)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()

	want, err := discovery.Discover(context.Background(), d.Table, nil, se.discoveryConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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

// TestSessionEngineReuseAndStaleness: detection keeps the engine it
// booted while it is current, and boots a new one when the table is
// mutated in place (the ApplyRepairs-then-redetect flow) — no manual
// reset required.
func TestSessionEngineReuseAndStaleness(t *testing.T) {
	d := datagen.ZipCity(400, 0.02, 62)
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng := se.str
	if eng == nil {
		t.Fatal("detection left the session without an engine")
	}
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	if se.str != eng {
		t.Error("re-running detection on an unchanged table should keep the engine")
	}
	// Apply the repairs in place and re-detect with NO manual reset:
	// violations covered by repairs disappear only if the stale engine is
	// replaced by one booted over the mutated table.
	if _, err := detect.Apply(se.Table, se.Repairs); err != nil {
		t.Fatal(err)
	}
	before := len(se.Violations)
	after, err := se.RunDetection(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if se.str == eng {
		t.Error("detection after table mutation should boot a new engine")
	}
	if len(after) >= before {
		t.Errorf("violations after repair = %d, want < %d", len(after), before)
	}
}

func TestSessionStreamDeltas(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
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
	diff, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows(row)})
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
	changed, rdiff, err := se.ApplyRepairs(context.Background(), se.Repairs)
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
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.PhoneState(100, 0, 45)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if _, err := se.Stream(); err == nil {
		t.Error("Stream without rules should fail")
	}
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.DeleteRows(0)}); err == nil {
		t.Error("ApplyDeltas without rules should fail")
	}
}

// TestApplyRepairsWithoutEngine pins ApplyRepairs' one path: with no
// engine yet it builds one and routes the repairs through it, so the diff
// is never nil, and the table and violations come out as the in-place
// detect.Apply plus a full re-detection on a copy would leave them.
func TestApplyRepairsWithoutEngine(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.PhoneState(600, 0.01, 46)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()
	if err := se.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(se.Repairs) == 0 {
		t.Fatal("no repairs on dirty data")
	}
	ref := se.Table.Clone()
	wantChanged, err := detect.Apply(ref, se.Repairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detect.New(ref, detect.Options{}).DetectAllContext(ctx, se.rules(), 1)
	if err != nil {
		t.Fatal(err)
	}
	changed, diff, err := se.ApplyRepairs(context.Background(), se.Repairs)
	if err != nil {
		t.Fatal(err)
	}
	if diff == nil || changed != wantChanged || changed == 0 {
		t.Fatalf("ApplyRepairs: changed=%d diff=%v, want %d changes and a diff", changed, diff, wantChanged)
	}
	if got, want := csvOf(t, se.Table), csvOf(t, ref); got != want {
		t.Error("repaired table differs from detect.Apply on a copy")
	}
	if got, want := mustJSONStr(t, se.Violations), mustJSONStr(t, want.Violations); got != want {
		t.Errorf("violations after ApplyRepairs:\n got %s\nwant %s", got, want)
	}
	if _, diff, err := se.ApplyRepairs(context.Background(), nil); err != nil || diff == nil {
		t.Errorf("ApplyRepairs(nil): diff=%v err=%v, want an empty diff", diff, err)
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

// TestSessionHoldsOneDetectionState pins the session's one-state rule:
// detection boots the incremental engine, and the session's violations
// and detection stats are that engine's sorted set and boot cost. While
// the engine is current, detection, repairs and Stream() keep it; a
// rule-set change makes detection boot the one engine Stream() then
// serves.
func TestSessionHoldsOneDetectionState(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.ZipCity(800, 0.01, 48)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()
	if err := se.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(se.Discovered) < 2 {
		t.Fatalf("need two rules to confirm a subset, mined %d", len(se.Discovered))
	}
	eng, ok := se.str.(*stream.Engine)
	if !ok {
		t.Fatalf("after Run: engine %T, want the one *stream.Engine detection booted", se.str)
	}
	// The session's violations are the engine's shared sorted set, not a
	// copy rendered beside it.
	if vs := eng.Violations(); len(vs) == 0 || &se.Violations[0] != &vs[0] {
		t.Fatal("the session's violations are not the engine's set")
	}
	if !reflect.DeepEqual(se.DetectStats, eng.Stats().Boot) {
		t.Fatalf("DetectStats %+v, want the engine's boot stats %+v", se.DetectStats, eng.Stats().Boot)
	}
	if _, err := se.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := se.RunRepairs(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := se.Stream(); err != nil || got != eng {
		t.Fatalf("Stream() after detection and repairs: %v, %v; want the engine detection booted", got, err)
	}

	// A rule-set change leaves the engine behind: detection boots one
	// over the new rules, and Stream() serves it.
	se.Confirm(se.Discovered[0].ID())
	if _, err := se.RunDetection(ctx); err != nil {
		t.Fatal(err)
	}
	booted := se.str
	if booted == Streamer(eng) || len(se.strRules) != 1 || len(se.DetectStats) != 1 {
		t.Fatalf("detection after Confirm(subset): engine over %d rules, %d stats", len(se.strRules), len(se.DetectStats))
	}
	if got, err := se.Stream(); err != nil || got != booted {
		t.Fatalf("Stream() after Confirm(subset): %v, %v; want the engine detection booted", got, err)
	}
}

// countingPersister records the seq of every journaled batch.
type countingPersister struct{ journaled []int64 }

func (p *countingPersister) Journal(_ context.Context, _ string, seq int64, _ stream.Batch) error {
	p.journaled = append(p.journaled, seq)
	return nil
}
func (p *countingPersister) Checkpoint(*SessionSnapshot) error { return nil }
func (p *countingPersister) CompactionDue(string) bool         { return false }

// TestReplayJournalRefusesBatchesWithoutRules: an engine over zero rules
// refuses deltas, so a detected zero-rule session with a journal is
// corrupt persistence state, not batches to replay.
func TestReplayJournalRefusesBatchesWithoutRules(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	se := sys.NewSession("p", datagen.PhoneState(50, 0, 1).Table, DefaultParams())
	se.UseRules(nil)
	if _, err := se.RunDetection(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := se.Snapshot()
	snap.TableData = snap.Table.AppendBinary(nil)
	back, err := sys.RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	err = back.ReplayJournal(0, []stream.Batch{{stream.UpdateCell(0, "state", "ZZ")}})
	if err == nil || !strings.Contains(err.Error(), "no rules were snapshotted") {
		t.Fatalf("replaying a batch without rules: %v, want the corruption error", err)
	}
}

// TestReplayJournalWiresTheSink: a persister attached before recovery
// sees none of the replayed batches, and journals the first batch after
// them — the engine ReplayJournal installs journals like any other.
func TestReplayJournalWiresTheSink(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.PhoneState(300, 0.01, 49)
	se := sys.NewSession("p", d.Table, DefaultParams())
	ctx := context.Background()
	if err := se.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := se.Snapshot()
	snap.TableData = snap.Table.AppendBinary(nil)
	const base = 5
	batches := []stream.Batch{
		{stream.AppendRows(se.Table.Row(0))},
		{stream.UpdateCell(1, "state", "ZZ")},
		{stream.DeleteRows(2)},
	}
	back, err := sys.RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	p := &countingPersister{}
	back.SetPersist(p)
	if err := back.ReplayJournal(base, batches); err != nil {
		t.Fatal(err)
	}
	if len(p.journaled) != 0 {
		t.Fatalf("replay journaled %v, want nothing", p.journaled)
	}
	if _, err := back.ApplyDeltasCtx(ctx, stream.Batch{stream.AppendRows(back.Table.Row(0))}); err != nil {
		t.Fatal(err)
	}
	if want := int64(base + len(batches) + 1); len(p.journaled) != 1 || p.journaled[0] != want {
		t.Fatalf("journaled %v after the first live batch, want [%d]", p.journaled, want)
	}
}

func csvOf(t *testing.T, tb *table.Table) string {
	t.Helper()
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestStreamRebuildContinuesCursorTimeline(t *testing.T) {
	sys := NewSystemWith(docstore.NewMem(), DefaultSystemConfig())
	d := datagen.PhoneState(400, 0.01, 47)
	se := sys.NewSession("p", d.Table, DefaultParams())
	if err := se.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := se.ApplyDeltasCtx(context.Background(), stream.Batch{stream.AppendRows(se.Table.Row(0))}); err != nil {
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
