package docstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// get returns the document with the id, or nil.
func get(s *Store, coll string, id int64) Doc {
	if docs := s.Find(coll, Filter{IDField: id}); len(docs) == 1 {
		return docs[0]
	}
	return nil
}

func TestInsertAndGet(t *testing.T) {
	s := NewMem()
	id := s.Insert("c", Doc{"k": "v"})
	d := get(s, "c", id)
	if d == nil || d["k"] != "v" {
		t.Fatalf("get = %v", d)
	}
	if got, _ := d[IDField].(int64); got != id {
		t.Errorf("_id = %v", d[IDField])
	}
	if get(s, "c", 999) != nil {
		t.Error("missing id should find nothing")
	}
}

func TestInsertCopies(t *testing.T) {
	s := NewMem()
	d := Doc{"k": "v"}
	id := s.Insert("c", d)
	d["k"] = "mutated"
	if got := get(s, "c", id); got["k"] != "v" {
		t.Error("Insert should copy the document")
	}
	got := get(s, "c", id)
	got["k"] = "mutated2"
	if get(s, "c", id)["k"] != "v" {
		t.Error("Find should return a copy")
	}
}

func TestFindFilter(t *testing.T) {
	s := NewMem()
	s.Insert("c", Doc{"kind": "a", "n": 1})
	s.Insert("c", Doc{"kind": "b", "n": 2})
	s.Insert("c", Doc{"kind": "a", "n": 3})
	all := s.Find("c", nil)
	if len(all) != 3 {
		t.Fatalf("Find(nil) = %d", len(all))
	}
	as := s.Find("c", Filter{"kind": "a"})
	if len(as) != 2 {
		t.Fatalf("Find(kind=a) = %d", len(as))
	}
	// Sorted by id.
	id0, _ := asID(as[0][IDField])
	id1, _ := asID(as[1][IDField])
	if id0 >= id1 {
		t.Error("Find results not id-ordered")
	}
	if n := len(s.Find("c", Filter{"kind": "z"})); n != 0 {
		t.Errorf("no-match Find = %d", n)
	}
	if n := len(s.Find("nope", nil)); n != 0 {
		t.Errorf("missing collection Find = %d", n)
	}
}

func TestDelete(t *testing.T) {
	s := NewMem()
	s.Insert("c", Doc{"session": "s1", "n": 1})
	keep := s.Insert("c", Doc{"session": "s2", "n": 2})
	s.Insert("c", Doc{"session": "s1", "n": 3})
	s.Insert("other", Doc{"session": "s1"})
	if n := s.Delete("c", Filter{"session": "s1"}); n != 2 {
		t.Fatalf("Delete removed %d, want 2", n)
	}
	if got := s.Find("c", nil); len(got) != 1 || got[0][IDField] != keep {
		t.Errorf("left in c: %v", got)
	}
	if len(s.Find("other", nil)) != 1 {
		t.Error("Delete reached into another collection")
	}
	if n := s.Delete("c", Filter{"session": "s1"}); n != 0 {
		t.Errorf("second Delete removed %d", n)
	}
	if n := s.Delete("nope", nil); n != 0 {
		t.Errorf("Delete on a missing collection removed %d", n)
	}
	if n := s.Delete("c", nil); n != 1 || len(s.Find("c", nil)) != 0 {
		t.Errorf("nil filter removed %d, %d left", n, len(s.Find("c", nil)))
	}
	// Ids are never reused, so a cursor over ids stays unambiguous.
	if id := s.Insert("c", Doc{}); id <= keep {
		t.Errorf("id %d reused after delete (last was %d)", id, keep)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1 := s.Insert("pfds", Doc{"table": "zip", "lhs": "zip"})
	s.Insert("violations", Doc{"row": 3})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenWith(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := get(back, "pfds", id1)
	if d == nil || d["table"] != "zip" {
		t.Fatalf("reload lost data: %v", d)
	}
	// New inserts continue the id sequence.
	id3 := back.Insert("pfds", Doc{})
	if id3 <= id1 {
		t.Errorf("id sequence regressed: %d after %d", id3, id1)
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := OpenWith(filepath.Join(t.TempDir(), "absent.json"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.colls) != 0 {
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
	s.Insert("pfds", Doc{"table": "zip", "payload": "0123456789"})
	s.Insert("pfds", Doc{"table": "phone", "payload": "abcdefghij"})
	if err := s.Flush(); err != nil {
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
	// Valid JSON whose documents lack the reserved _id is a corrupt store:
	// it must surface as an error instead of silently dropping documents.
	path := filepath.Join(t.TempDir(), "store.json")
	if err := writeFile(path, `{"next_id":5,"collections":{"pfds":[{"table":"zip"}]}}`); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWith(path, Options{})
	if err == nil {
		t.Fatal("doc without _id should error")
	}
	if want := "_id"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should mention %q", err, want)
	}
}

func TestFsyncFlushRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := OpenWith(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := s.Insert("c", Doc{"k": "v"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenWith(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if get(back, "c", id)["k"] != "v" {
		t.Error("fsync flush lost data")
	}
}

func TestMemFlushNoop(t *testing.T) {
	s := NewMem()
	s.Insert("c", Doc{})
	if err := s.Flush(); err != nil {
		t.Errorf("mem flush should be a no-op: %v", err)
	}
}

func TestInsertJSON(t *testing.T) {
	s := NewMem()
	type rec struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	id, err := s.InsertJSON("c", rec{Name: "x", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := get(s, "c", id)
	if d["name"] != "x" {
		t.Errorf("InsertJSON doc = %v", d)
	}
	if _, err := s.InsertJSON("c", []int{1, 2}); err == nil {
		t.Error("non-object should fail")
	}
	if _, err := s.InsertJSON("c", make(chan int)); err == nil {
		t.Error("unmarshalable should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := s.Insert("c", Doc{"worker": i})
				get(s, "c", id)
				s.Find("c", Filter{"worker": i})
			}
		}(i)
	}
	wg.Wait()
	if n := len(s.Find("c", nil)); n != 800 {
		t.Errorf("%d documents, want 800", n)
	}
}

// TestConcurrentFlush: sessions store their rules and flush at once;
// every flush succeeds and the file holds every document.
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
			for j := 0; j < 50; j++ {
				s.Insert("c", Doc{"worker": i})
				if err := s.Flush(); err != nil {
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
	if n := len(back.Find("c", nil)); n != 400 {
		t.Errorf("the file holds %d documents, want 400", n)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
