package docstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/anmat/anmat/internal/pattern"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/tableau"
)

// mkRule builds a one-row PFD table.lhs → state.
func mkRule(table, lhs string) *pfd.PFD {
	tp := tableau.New()
	tp.Add(tableau.Row{LHS: pattern.MustParseConstrained(`<\D{3}>\D{7}`), RHS: "NY", Support: 3})
	return pfd.New(table, lhs, "state", tp)
}

// rulesJSON renders a rule list the way the API serves rules.
func rulesJSON(t testing.TB, ps []*pfd.PFD) string {
	t.Helper()
	b, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestInsertAndGet(t *testing.T) {
	s := NewMem()
	id1, err := s.AddProject("zeta")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.AddProject("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if id1 < 1 || id2 <= id1 {
		t.Errorf("ids %d, %d: want positive and increasing", id1, id2)
	}
	if got := s.ProjectNames(); !slices.Equal(got, []string{"alpha", "zeta"}) {
		t.Errorf("ProjectNames = %q, want sorted", got)
	}
	if got := NewMem().ProjectNames(); len(got) != 0 {
		t.Errorf("fresh store lists %q", got)
	}
}

// TestInsertCopies: the store keeps its own copy of each rule, which
// renders as the given one, and neither the slice it was given nor the
// slices it returns are shared with a caller.
func TestInsertCopies(t *testing.T) {
	s := NewMem()
	r := mkRule("zip", "zip")
	ps := []*pfd.PFD{r}
	if err := s.ReplaceRules("zip", ps); err != nil {
		t.Fatal(err)
	}
	ps[0] = mkRule("zip", "other")
	got := s.Rules("zip")
	if len(got) != 1 || got[0] == r || rulesJSON(t, got) != rulesJSON(t, []*pfd.PFD{r}) {
		t.Fatalf("Rules = %v, want a copy of the stored rule", got)
	}
	stored := got[0]
	got[0] = nil
	if s.Rules("zip")[0] != stored {
		t.Error("Rules should return a fresh slice of the stored rules")
	}
	s.AddProject("p")
	s.ProjectNames()[0] = "mutated"
	if s.ProjectNames()[0] != "p" {
		t.Error("ProjectNames should return a fresh slice")
	}
}

func TestFindFilter(t *testing.T) {
	s := NewMem()
	a1, b1, a2 := mkRule("a", "x"), mkRule("b", "x"), mkRule("a", "y")
	if err := s.ReplaceRules("a", []*pfd.PFD{a1, a2}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceRules("b", []*pfd.PFD{b1}); err != nil {
		t.Fatal(err)
	}
	if got, want := rulesJSON(t, s.Rules("a")), rulesJSON(t, []*pfd.PFD{a1, a2}); got != want {
		t.Errorf("Rules(a) = %s, want %s", got, want)
	}
	if got, want := rulesJSON(t, s.Rules("")), rulesJSON(t, []*pfd.PFD{a1, a2, b1}); got != want {
		t.Errorf("Rules(\"\") = %s, want every rule in id order, %s", got, want)
	}
	if got := s.Rules("nope"); len(got) != 0 {
		t.Errorf("Rules(nope) = %v", got)
	}
}

// TestDelete: replacing a table name's rule set deletes the rules stored
// for it before and no other name's; ids are never reused.
func TestDelete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a1, b1, a2 := mkRule("a", "x"), mkRule("b", "x"), mkRule("a", "y")
	s.ReplaceRules("a", []*pfd.PFD{a1})
	s.ReplaceRules("b", []*pfd.PFD{b1})
	if err := s.ReplaceRules("a", []*pfd.PFD{a2}); err != nil {
		t.Fatal(err)
	}
	if got, want := rulesJSON(t, s.Rules("")), rulesJSON(t, []*pfd.PFD{b1, a2}); got != want {
		t.Errorf("Rules = %s, want b's rule then a's replacement, %s", got, want)
	}
	if err := s.ReplaceRules("a", nil); err != nil {
		t.Fatal(err)
	}
	if got, want := rulesJSON(t, s.Rules("")), rulesJSON(t, []*pfd.PFD{b1}); got != want {
		t.Errorf("an empty rule set left %s, want %s", got, want)
	}
	if id, _ := s.AddProject("p"); id != 4 {
		t.Errorf("project id %d after three stored rules, want 4: ids are never reused", id)
	}
	back, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := back.AddProject("q"); id != 5 {
		t.Errorf("reopened store hands out id %d, want 5", id)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.AddProject("census")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceRules("zip", []*pfd.PFD{mkRule("zip", "zip"), mkRule("zip", "city")}); err != nil {
		t.Fatal(err)
	}
	back, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ProjectNames(); !slices.Equal(got, []string{"census"}) {
		t.Errorf("reload lost projects: %q", got)
	}
	if got, want := rulesJSON(t, back.Rules("zip")), rulesJSON(t, s.Rules("zip")); got != want {
		t.Errorf("reloaded rules %s, stored %s", got, want)
	}
	// New documents continue the id sequence.
	if id3, _ := back.AddProject("x"); id3 <= id1+2 {
		t.Errorf("id sequence regressed: %d after %d and two rules", id3, id1)
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := OpenWith(filepath.Join(t.TempDir(), "absent.json"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ProjectNames()) != 0 || len(s.Rules("")) != 0 {
		t.Error("fresh store should be empty")
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(path, Options{}); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestOpenTruncatedFile(t *testing.T) {
	// A store file cut off mid-write (crash during a non-atomic copy,
	// disk-full tail loss) must be reported, not loaded as partial data.
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.ReplaceRules("zip", []*pfd.PFD{mkRule("zip", "zip")})
	if err := s.ReplaceRules("phone", []*pfd.PFD{mkRule("phone", "phone")}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{4, 2, 1} { // 25%, 50%, all-but-one-byte
		cut := len(b) / frac
		if frac == 1 {
			cut = len(b) - 1
		}
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWith(path, Options{}); err == nil {
			t.Errorf("truncated to %d/%d bytes: OpenWith should error", cut, len(b))
		}
	}
}

func TestOpenGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	if err := writeFile(path, "\x00\x91\x7f binary junk \xfe\xff"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(path, Options{}); err == nil {
		t.Error("garbage file should error")
	}
}

func TestOpenDocWithoutIDReported(t *testing.T) {
	// Valid JSON whose documents lack a valid _id is a corrupt store: it
	// must surface as an error instead of silently dropping documents.
	for _, doc := range []string{
		`{"pfds":[{"table":"zip"}]}`,
		`{"pfds":[{"_id":0,"table":"zip"}]}`,
		`{"pfds":[{"_id":-3,"table":"zip"}]}`,
		`{"pfds":[{"_id":1.5,"table":"zip"}]}`,
		`{"pfds":[{"_id":"1","table":"zip"}]}`,
		`{"projects":[{"_id":2,"name":"a"},{"_id":2,"name":"b"}]}`,
		`{"projects":[{"_id":3,"name":"a"},{"_id":2,"name":"b"}]}`,
		`{"projects":[{"_id":9007199254740992,"name":"a"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "store.json")
		if err := writeFile(path, `{"next_id":5,"collections":`+doc+`}`); err != nil {
			t.Fatal(err)
		}
		_, err := OpenWith(path, Options{})
		if err == nil {
			t.Errorf("%s: should error", doc)
			continue
		}
		if want := "_id"; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q should mention %q", doc, err, want)
		}
	}
}

// TestOpenRefusesUnparseableRule: a stored rule whose tableau does not
// parse is refused when the file is opened, and the error names it.
func TestOpenRefusesUnparseableRule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	doc := `{"next_id":8,"collections":{"pfds":[{"_id":7,"table":"t","lhs":"a","rhs":"b","tableau":[{"lhs":"<\\L","rhs":"x"}]}]}}`
	if err := writeFile(path, doc); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWith(path, Options{})
	if err == nil {
		t.Fatal("a rule that does not parse should be refused")
	}
	if want := "rule 7 (t:a->b)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should name the rule, %q", err, want)
	}
}

func TestFsyncFlushRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddProject("p"); err != nil {
		t.Fatal(err)
	}
	back, err := OpenWith(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ProjectNames(); !slices.Equal(got, []string{"p"}) {
		t.Errorf("fsync write lost data: %q", got)
	}
}

// TestMemFlushNoop: a memory-only store's changes succeed and write
// nothing.
func TestMemFlushNoop(t *testing.T) {
	before, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	s := NewMem()
	if _, err := s.AddProject("p"); err != nil {
		t.Errorf("memory store AddProject: %v", err)
	}
	if err := s.ReplaceRules("zip", []*pfd.PFD{mkRule("zip", "zip")}); err != nil {
		t.Errorf("memory store ReplaceRules: %v", err)
	}
	after, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("a memory store wrote into the working directory: %d entries, then %d", len(before), len(after))
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			table := fmt.Sprint("t", i)
			for j := 0; j < 100; j++ {
				s.AddProject(fmt.Sprint(i, "/", j))
				s.ReplaceRules(table, []*pfd.PFD{mkRule(table, "a"), mkRule(table, "b")})
				s.Rules(table)
				s.ProjectNames()
			}
		}(i)
	}
	wg.Wait()
	if n := len(s.ProjectNames()); n != 800 {
		t.Errorf("%d projects, want 800", n)
	}
	if n := len(s.Rules("")); n != 16 {
		t.Errorf("%d rules, want two per table name, 16", n)
	}
}

// TestConcurrentFlush: sessions store their rules at once; every write
// succeeds and the file holds every document.
func TestConcurrentFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			table := fmt.Sprint("t", i)
			for j := 0; j < 50; j++ {
				if _, err := s.AddProject(table); err != nil {
					t.Error(err)
					return
				}
				if err := s.ReplaceRules(table, []*pfd.PFD{mkRule(table, "a")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	back, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(back.ProjectNames()); n != 400 {
		t.Errorf("the file holds %d projects, want 400", n)
	}
	if got, want := rulesJSON(t, back.Rules("")), rulesJSON(t, s.Rules("")); got != want {
		t.Errorf("the file holds rules %s, the store %s", got, want)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
