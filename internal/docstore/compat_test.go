package docstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testdata/store.json was written by the release before the typed store,
// whose store held untyped documents: a System on that path (WithStorePath)
// created the projects "beta" and "alpha", then ran the full pipeline over
// datagen.PhoneState(200, 0.02, 2019), datagen.ZipCity(200, 0.02, 7919)
// and datagen.PhoneState(200, 0.02, 11), the last replacing the first's
// rule set. projects.json and pfds.json are what that System's Projects()
// and LoadPFDs("") returned, indented by json.MarshalIndent.
const fixture = "testdata/store.json"

// TestOpenEarlierReleaseFile: a file the earlier release wrote opens to
// the projects and rules it listed, and a file this store writes meets the
// earlier release's open rule — collections "pfds" and "projects" only,
// every document with a positive integer _id below next_id.
func TestOpenEarlierReleaseFile(t *testing.T) {
	b, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for file, v := range map[string]any{"projects.json": s.ProjectNames(), "pfds.json": s.Rules("")} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s: the store lists\n%s\nthe earlier release\n%s", file, got, want)
		}
	}
	if len(s.Rules("d1_phone_state")) == 0 || len(s.Rules("d5_zip")) == 0 {
		t.Fatal("the fixture lacks a table's rules: the comparison above checks less than it claims")
	}

	if _, err := s.AddProject("gamma"); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	// How the earlier release read the file: untyped documents, numbers
	// as float64.
	var dump struct {
		NextID      float64                     `json:"next_id"`
		Collections map[string][]map[string]any `json:"collections"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, docs := range dump.Collections {
		names = append(names, name)
		for i, d := range docs {
			id, ok := d["_id"].(float64)
			if !ok || id < 1 || id != float64(int64(id)) || id >= dump.NextID {
				t.Errorf("collection %q document %d: _id %v, next_id %v", name, i, d["_id"], dump.NextID)
			}
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, []string{"pfds", "projects"}) {
		t.Errorf("the file holds collections %q", names)
	}
	if n := len(dump.Collections["projects"]) + len(dump.Collections["pfds"]); n != 3+len(s.Rules("")) {
		t.Errorf("the file holds %d documents, want 3 projects and %d rules", n, len(s.Rules("")))
	}
}

// FuzzOpenStore: OpenWith refuses the bytes, or opens a store that
// reopens to the same projects and rules after one write-through change.
func FuzzOpenStore(f *testing.F) {
	b, err := os.ReadFile(fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2])
	f.Add([]byte(`{"next_id":5,"collections":{"pfds":[{"table":"zip"}]}}`))
	f.Add([]byte(`{"next_id":8,"collections":{"pfds":[{"_id":7,"table":"t","lhs":"a","rhs":"b","tableau":[{"lhs":"<\\L","rhs":"x"}]}]}}`))
	path := filepath.Join(f.TempDir(), "store.json") // one per fuzzing process
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWith(path, Options{})
		if err != nil {
			return
		}
		if _, err := s.AddProject("fuzz"); err != nil {
			if strings.Contains(err.Error(), "no ids left") {
				return
			}
			t.Fatal(err)
		}
		back, err := OpenWith(path, Options{})
		if err != nil {
			t.Fatalf("the store's own write does not open: %v", err)
		}
		if got, want := back.ProjectNames(), s.ProjectNames(); !slices.Equal(got, want) {
			t.Errorf("reopened to projects %q, the store held %q", got, want)
		}
		if got, want := rulesJSON(t, back.Rules("")), rulesJSON(t, s.Rules("")); got != want {
			t.Errorf("reopened to rules %s, the store held %s", got, want)
		}
	})
}
